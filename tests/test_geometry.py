import math

import numpy as np
import pytest

from oracles import extrema_pixel_scan, iou3d_cell_oracle, iou3d_voxel_oracle, translated
from pose3dtrack.errors import EmptySupportError, ValidationError
from pose3dtrack.geometry import (
    Box3D,
    depth_extrema,
    iou2d,
    iou3d,
    iou3d_matrix,
    lift_box,
)
from pose3dtrack.ingest import Box2D, CameraModel, DepthMap, Mask2D, encode_mask


def random_box(rng, span=4.0) -> Box3D:
    lo = rng.uniform(-span, span, size=3)
    size = rng.uniform(0.2, 2.5, size=3)
    return Box3D(lo[0], lo[0] + size[0], lo[1], lo[1] + size[1], lo[2], lo[2] + size[2])


def grid_box(rng, step=1.0 / 64.0) -> Box3D:
    """Box with dyadic-grid coordinates, so float arithmetic on it is exact."""
    lo = rng.integers(-256, 256, size=3) * step
    size = (rng.integers(8, 128, size=3)) * step
    return Box3D(lo[0], lo[0] + size[0], lo[1], lo[1] + size[1], lo[2], lo[2] + size[2])


def depth_fixture(rng, w=12, h=10, invalid_frac=0.2):
    values = rng.uniform(0.5, 9.0, size=(h, w))
    values[rng.random((h, w)) < invalid_frac] = 0.0
    return DepthMap(width=w, height=h, values=values.astype(np.float32))


# ---------------------------------------------------------------------------
# iou3d / iou2d
# ---------------------------------------------------------------------------

def test_iou3d_identity_is_one():
    b = Box3D(0.0, 2.0, 0.0, 2.0, 0.0, 2.0)
    assert iou3d(b, b) == 1.0


def test_iou3d_disjoint_on_z_is_zero():
    a = Box3D(0, 1, 0, 1, 0, 1)
    b = Box3D(0, 1, 0, 1, 2, 3)
    assert iou3d(a, b) == 0.0


def test_iou3d_pinned_third_overlap():
    a = Box3D(0, 2, 0, 2, 0, 2)
    b = Box3D(1, 3, 0, 2, 0, 2)
    expected = iou3d_voxel_oracle(a.as_array(), b.as_array(), resolution=0.01)
    assert math.isclose(expected, 4.0 / 12.0, abs_tol=1e-3)
    assert math.isclose(iou3d(a, b), expected, abs_tol=1e-3)
    assert math.isclose(iou3d(a, b), 4.0 / 12.0, rel_tol=1e-12)


def test_iou3d_against_cell_oracle_random():
    rng = np.random.default_rng(42)
    for _ in range(300):
        a, b = random_box(rng), random_box(rng)
        assert math.isclose(
            iou3d(a, b), iou3d_cell_oracle(a.as_array(), b.as_array()),
            abs_tol=1e-9,
        )


def test_iou3d_symmetry_and_bounds():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a, b = random_box(rng), random_box(rng)
        v = iou3d(a, b)
        assert v == iou3d(b, a)
        assert 0.0 <= v <= 1.0


def test_iou3d_translation_invariance_exact_on_grid():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = grid_box(rng), grid_box(rng)
        t = tuple(float(v) for v in rng.integers(-5, 6, size=3))
        assert iou3d(translated(a, *t), translated(b, *t)) == iou3d(a, b)


def test_iou3d_matrix_matches_scalar():
    rng = np.random.default_rng(3)
    boxes_a = [random_box(rng, span=1.5) for _ in range(6)]
    boxes_b = [random_box(rng, span=1.5) for _ in range(4)]
    mat = iou3d_matrix(np.stack([b.as_array() for b in boxes_a]),
                       np.stack([b.as_array() for b in boxes_b]))
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            assert math.isclose(mat[i, j], iou3d(a, b), rel_tol=1e-12, abs_tol=1e-15)


def test_iou2d_examples():
    a = Box2D(0, 0, 2, 2)
    assert iou2d(a, a) == 1.0
    assert iou2d(a, Box2D(3, 3, 4, 4)) == 0.0
    assert math.isclose(iou2d(a, Box2D(1, 0, 3, 2)), 2.0 / 6.0, rel_tol=1e-12)


def test_box3d_requires_positive_volume():
    with pytest.raises(ValidationError):
        Box3D(0, 1, 0, 1, 2, 2)


# ---------------------------------------------------------------------------
# depth_extrema
# ---------------------------------------------------------------------------

def test_extrema_constant_field():
    depth = DepthMap(width=4, height=4, values=np.full((4, 4), 5.0, dtype=np.float32))
    mask = Mask2D(width=4, height=4, runs=((0, 6),))
    assert depth_extrema(depth, mask, Box2D(0, 0, 3, 3)) == (5.0, 5.0)


def test_extrema_specific_pixels():
    values = np.zeros((2, 2), dtype=np.float32)
    values[0, 0], values[0, 1], values[1, 0] = 4.0, 1.5, 7.25
    depth = DepthMap(width=2, height=2, values=values)
    mask = Mask2D(width=2, height=2, runs=((0, 3),))
    assert depth_extrema(depth, mask, Box2D(0, 0, 1, 1)) == (1.5, 7.25)


def test_extrema_all_invalid_raises():
    depth = DepthMap(width=2, height=2, values=np.zeros((2, 2), dtype=np.float32))
    mask = Mask2D(width=2, height=2, runs=((0, 4),))
    with pytest.raises(EmptySupportError):
        depth_extrema(depth, mask, Box2D(0, 0, 1, 1))


def test_extrema_matches_pixel_scan_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        depth = depth_fixture(rng)
        total = depth.width * depth.height
        count = int(rng.integers(1, total))
        idx = set(map(int, rng.choice(total, size=count, replace=False)))
        mask = encode_mask(idx, depth.width, depth.height)
        box = Box2D(float(rng.uniform(0, 5)), float(rng.uniform(0, 4)),
                    float(rng.uniform(6, 11)), float(rng.uniform(5, 9)))
        expected = extrema_pixel_scan(depth.values.tolist(), idx, (box.x_min, box.y_min, box.x_max, box.y_max))
        if expected is None:
            with pytest.raises(EmptySupportError):
                depth_extrema(depth, mask, box)
        else:
            got = depth_extrema(depth, mask, box)
            assert got == (np.float64(np.float32(expected[0])), np.float64(np.float32(expected[1])))


def test_extrema_percentile_clips_outlier():
    values = np.full((10, 10), 5.0, dtype=np.float32)
    values[0, 0] = 50.0
    depth = DepthMap(width=10, height=10, values=values)
    mask = Mask2D(width=10, height=10, runs=((0, 100),))
    box = Box2D(0, 0, 9, 9)
    z0_raw, z1_raw = depth_extrema(depth, mask, box, percentile=0.0)
    z0_p, z1_p = depth_extrema(depth, mask, box, percentile=1.0)
    assert z1_raw == 50.0
    assert z1_p < 50.0


# ---------------------------------------------------------------------------
# lift_box
# ---------------------------------------------------------------------------

def unit_cam():
    return CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0)


def test_lift_box_pinned_example():
    depth = DepthMap(width=4, height=4, values=np.full((4, 4), 4.0, dtype=np.float32))
    mask = Mask2D(width=4, height=4, runs=((0, 16),))
    box = Box2D(1.0, 1.0, 2.0, 2.0)
    lifted = lift_box(box, depth, mask, unit_cam(), min_thickness=0.2)
    assert (lifted.x_min, lifted.x_max) == (4.0, 8.0)
    assert (lifted.y_min, lifted.y_max) == (4.0, 8.0)
    assert math.isclose(lifted.z_min, 3.9) and math.isclose(lifted.z_max, 4.1)


def test_lift_box_symmetric_straddle():
    depth = DepthMap(width=5, height=5, values=np.full((5, 5), 2.0, dtype=np.float32))
    mask = Mask2D(width=5, height=5, runs=((0, 25),))
    cam = CameraModel(fx=1.0, fy=1.0, cx=2.0, cy=2.0)
    lifted = lift_box(Box2D(1.0, 1.0, 3.0, 3.0), depth, mask, cam)
    assert lifted.x_min == -lifted.x_max
    assert lifted.y_min == -lifted.y_max


def test_lift_box_empty_support_propagates():
    depth = DepthMap(width=2, height=2, values=np.zeros((2, 2), dtype=np.float32))
    mask = Mask2D(width=2, height=2, runs=((0, 4),))
    with pytest.raises(EmptySupportError):
        lift_box(Box2D(0, 0, 1, 1), depth, mask, unit_cam())


def test_lift_box_preserves_depth_order():
    # Two people in one frame: nearer mask support must yield nearer box.
    values = np.zeros((6, 8), dtype=np.float32)
    values[:, :4] = 2.0
    values[:, 4:] = 6.0
    depth = DepthMap(width=8, height=6, values=values)
    near_mask = encode_mask({r * 8 + c for r in range(6) for c in range(4)}, 8, 6)
    far_mask = encode_mask({r * 8 + c for r in range(6) for c in range(4, 8)}, 8, 6)
    cam = CameraModel(fx=10.0, fy=10.0, cx=4.0, cy=3.0)
    near = lift_box(Box2D(0, 0, 3.5, 5), depth, near_mask, cam)
    far = lift_box(Box2D(4, 0, 7, 5), depth, far_mask, cam)
    assert near.z_min < far.z_min
