"""Property tests for the step of ``depth_extrema`` that avoids NumPy's
percentile: the percentile extrema taken from one in-place sort."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pose3dtrack.geometry import clipped_extrema

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Depth-like float32 values, plus a few extremes of the float32 range.
_values = (st.floats(min_value=0.0, max_value=100.0, exclude_min=True, width=32)
           | st.sampled_from([1e-38, 3.0e38, 0.1, 7.25]))


@st.composite
def depth_samples(draw):
    n = draw(st.integers(1, 400))
    if draw(st.booleans()):  # heavy ties: every value from a pool of at most 4
        pool = draw(st.lists(_values, min_size=1, max_size=4))
        elements = st.sampled_from(pool)
    else:
        elements = _values
    return draw(arrays(np.float32, n, elements=elements))


_percentiles = st.just(1.0) | st.floats(min_value=0.0, max_value=50.0,
                                        exclude_min=True, exclude_max=True)


@SETTINGS
@given(vals=depth_samples(), percentile=_percentiles)
def test_clipped_extrema_equals_numpy_linear_percentile(vals, percentile):
    expected = np.percentile(vals.astype(np.float64), (percentile, 100.0 - percentile))
    got = clipped_extrema(vals.copy(), percentile)
    assert got == (float(expected[0]), float(expected[1]))
    assert all(type(z) is float for z in got)


@SETTINGS
@given(vals=depth_samples())
def test_clipped_extrema_at_zero_is_min_max(vals):
    before = vals.copy()
    assert clipped_extrema(vals, 0.0) == (float(vals.min()), float(vals.max()))
    np.testing.assert_array_equal(vals, before)  # no sort without clipping
