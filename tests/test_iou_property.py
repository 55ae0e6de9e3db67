"""Property tests for the scalar 3D and 2D IOU, which call the matrix kernels:
equal to the per-axis scalar reference and to the matrix cell, symmetric,
within [0, 1], 1 on identical boxes, and unchanged by translation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_iou2d, reference_iou3d, translated
from pose3dtrack.geometry import Box3D, iou2d, iou2d_matrix, iou3d, iou3d_matrix
from pose3dtrack.ingest import Box2D

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)

# Coordinates and shifts are multiples of 1/64 within +-64, so every sum,
# difference and volume below is exact and translation cannot round.
GRID = 64
_shifts = st.integers(-64 * GRID, 64 * GRID).map(lambda k: k / GRID)


@st.composite
def interval_pairs(draw, dims, dyadic=True):
    """Two boxes as per-axis (lo, hi) intervals.  On the dyadic grid a small
    reach makes overlapping, face-sharing and coinciding boxes common; any
    floats make every subtraction and product round."""
    if dyadic:
        reach = draw(st.sampled_from([3, 16, 64 * GRID]))
        ends = st.lists(st.integers(-reach, reach), min_size=2, max_size=2,
                        unique=True).map(lambda ks: sorted(k / GRID for k in ks))
    else:
        ends = st.lists(st.floats(-64.0, 64.0), min_size=2, max_size=2,
                        unique=True).map(sorted)

    def box():
        return [tuple(draw(ends)) for _ in range(dims)]

    return box(), box()


def _box3d(axes):
    (x0, x1), (y0, y1), (z0, z1) = axes
    return Box3D(x0, x1, y0, y1, z0, z1)


def _box2d(axes):
    (x0, x1), (y0, y1) = axes
    return Box2D(x0, y0, x1, y1)


@SETTINGS
@given(pair=interval_pairs(3), shift=st.tuples(_shifts, _shifts, _shifts))
def test_iou3d_properties(pair, shift):
    a, b = _box3d(pair[0]), _box3d(pair[1])
    v = iou3d(a, b)
    assert type(v) is float
    matrix = iou3d_matrix(np.stack([a.as_array(), b.as_array()]),
                          np.stack([b.as_array(), a.as_array()]))
    assert v == reference_iou3d(a, b) == matrix[0, 0]
    assert v == iou3d(b, a) == matrix[1, 1]
    assert 0.0 <= v <= 1.0
    assert iou3d(a, a) == matrix[0, 1] == 1.0
    assert iou3d(translated(a, *shift), translated(b, *shift)) == v


@SETTINGS
@given(pair=interval_pairs(2), shift=st.tuples(_shifts, _shifts))
def test_iou2d_properties(pair, shift):
    a, b = _box2d(pair[0]), _box2d(pair[1])
    v = iou2d(a, b)
    assert type(v) is float
    matrix = iou2d_matrix(np.array([a.as_tuple(), b.as_tuple()]),
                          np.array([b.as_tuple(), a.as_tuple()]))
    assert v == reference_iou2d(a, b) == matrix[0, 0]
    assert v == iou2d(b, a) == matrix[1, 1]
    assert 0.0 <= v <= 1.0
    assert iou2d(a, a) == matrix[0, 1] == 1.0
    dx, dy = shift
    moved = [_box2d([(x0 + dx, x1 + dx), (y0 + dy, y1 + dy)]) for (x0, x1), (y0, y1) in pair]
    assert iou2d(*moved) == v


@SETTINGS
@given(pair=interval_pairs(3, dyadic=False))
def test_iou3d_equals_reference_on_any_floats(pair):
    a, b = _box3d(pair[0]), _box3d(pair[1])
    matrix = iou3d_matrix(np.stack([a.as_array(), b.as_array()]),
                          np.stack([b.as_array(), a.as_array()]))
    assert iou3d(a, b) == reference_iou3d(a, b) == matrix[0, 0]
    assert iou3d(b, a) == reference_iou3d(b, a) == matrix[1, 1]


@SETTINGS
@given(pair=interval_pairs(2, dyadic=False))
def test_iou2d_equals_reference_on_any_floats(pair):
    a, b = _box2d(pair[0]), _box2d(pair[1])
    matrix = iou2d_matrix(np.array([a.as_tuple(), b.as_tuple()]),
                          np.array([b.as_tuple(), a.as_tuple()]))
    assert iou2d(a, b) == reference_iou2d(a, b) == matrix[0, 0]
    assert iou2d(b, a) == reference_iou2d(b, a) == matrix[1, 1]


@SETTINGS
@given(pair=interval_pairs(2, dyadic=False))
def test_iou2d_equals_iou3d_with_a_unit_depth_extent(pair):
    # Both names share one body, so a unit z extent changes no bit.
    a, b = ([x0, y0, x1, y1] for (x0, x1), (y0, y1) in pair)
    a3, b3 = ([x0, x1, y0, y1, 0.0, 1.0] for (x0, x1), (y0, y1) in pair)
    assert np.array_equal(iou2d_matrix([a, b], [b, a]), iou3d_matrix([a3, b3], [b3, a3]))
