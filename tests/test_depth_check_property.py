"""Property test for the depth raster check: ``DepthMap`` accepts a raster
with one reduction over its bits and only scans pixel by pixel on failure.
It must accept and reject exactly what the full scan does, with the same
message, over float32 values drawn from raw uint32 bit patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pose3dtrack.errors import ValidationError
from pose3dtrack.ingest import DepthMap

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)

POS_ZERO, NEG_ZERO = 0x00000000, 0x80000000
SUBNORMALS = [0x00000001, 0x00400000, 0x007FFFFF]
MAX_FINITE, POS_INF, NEG_INF = 0x7F7FFFFF, 0x7F800000, 0xFF800000

# Finite values >= +0.0 (every positive pattern below +inf), plus -0.0.
_valid = (st.integers(POS_ZERO, MAX_FINITE)
          | st.sampled_from([POS_ZERO, NEG_ZERO, *SUBNORMALS, MAX_FINITE]))
# +-inf, NaN with any payload and either sign, and negative values down to
# the smallest subnormal and the most negative finite value.
_invalid = (st.sampled_from([POS_INF, NEG_INF, 0x80000001, 0x807FFFFF, 0xFF7FFFFF])
            | st.integers(POS_INF + 1, 0x7FFFFFFF)
            | st.integers(NEG_INF + 1, 0xFFFFFFFF)
            | st.integers(NEG_ZERO + 1, 0xFF7FFFFF))


@st.composite
def rasters(draw):
    """A (h, w) float32 raster from raw bits: valid values with up to three
    invalid ones at random pixels, and half the time a strided column slice
    of a wider array."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    bits = draw(arrays(np.uint32, (h, w), elements=_valid))
    for _ in range(draw(st.integers(0, 3))):
        bits[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = draw(_invalid)
    values = bits.view(np.float32)
    if w > 1 and draw(st.booleans()):
        start = draw(st.integers(0, 1))
        values = values[:, start::draw(st.integers(1, 2))]
    return values


def full_scan(arr: np.ndarray) -> str | None:
    """The check as one pass each for finiteness and sign: the message for
    the first bad pixel, or None."""
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr.reshape(-1)))[0])
        return f"DepthMap: non-finite value at pixel {bad}"
    if np.any(arr < 0.0):
        bad = int(np.flatnonzero(arr.reshape(-1) < 0.0)[0])
        return f"DepthMap: negative depth at pixel {bad}"
    return None


def check(values: np.ndarray) -> str | None:
    height, width = values.shape
    try:
        depth = DepthMap(width=width, height=height, values=values)
    except ValidationError as e:
        return str(e)
    assert depth.values.tobytes() == values.tobytes()
    return None


@SETTINGS
@given(values=rasters())
def test_one_reduction_check_agrees_with_full_scan(values):
    assert check(values) == full_scan(values)


@pytest.mark.parametrize("bits, expected", [
    (POS_ZERO, None), (NEG_ZERO, None), (SUBNORMALS[0], None), (SUBNORMALS[-1], None),
    (MAX_FINITE, None),
    (POS_INF, "non-finite value"), (NEG_INF, "non-finite value"),
    (POS_INF + 1, "non-finite value"), (0xFFFFFFFF, "non-finite value"),
    (0x80000001, "negative depth"), (0xFF7FFFFF, "negative depth"),
])
def test_boundary_bit_patterns(bits, expected):
    raster = np.full((2, 5), 1.5, dtype=np.float32)
    raster.view(np.uint32)[1, 3] = bits
    column_slice = raster[:, 1::2]  # columns 1 and 3, not contiguous
    assert not column_slice.flags.c_contiguous
    for values, pixel in ((raster, 8), (column_slice, 3)):
        want = None if expected is None else f"DepthMap: {expected} at pixel {pixel}"
        assert check(values) == full_scan(values) == want
