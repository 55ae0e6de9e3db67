"""The library's lifting path against the full-frame reference.

Every seeded instance must agree exactly (``==``, not approximately) on
depth_extrema, on lift_box from the measured span and on lift_pose, with and
without precomputed extrema for the pose, and every detection of a seeded
multi-detection frame on the frame kernel lift_poses.  The generator is
checked to have exercised every case the library treats differently from
the full-frame reference (mask past the box, runs that wrap a row, windows
at and past the frame edges, both window passes).
"""

from collections import Counter

import numpy as np
import pytest

from oracles import (
    decode_mask,
    reference_depth_extrema,
    reference_lift_box,
    reference_lift_pose,
    reference_supports,
    reference_window_values,
)
from pose3dtrack.errors import EmptySupportError, ValidationError
from pose3dtrack.geometry import depth_extrema, lift_box
from pose3dtrack.ingest import (
    BASIC15,
    Box2D,
    CameraModel,
    DepthMap,
    Detection,
    Keypoints2D,
    LiftingConfig,
    Skeleton,
    encode_mask,
    mask_indices,
    register_skeleton,
)
from pose3dtrack.pose3d import lift_pose, lift_poses

INSTANCES = 300
FRAMES = 120
PATCHES = (1, 3, 5, 7)
ROOT = BASIC15.root_index


def random_depth(rng, w, h):
    values = rng.uniform(0.5, 9.5, size=(h, w))
    if rng.random() < 0.4:
        values = np.round(values * 4.0) / 4.0  # ties between samples
    values[rng.random((h, w)) < rng.choice([0.0, 0.2, 0.6])] = 0.0
    return DepthMap(width=w, height=h, values=values.astype(np.float32))


def random_mask(rng, w, h):
    """A blob plus free runs up to two rows long, so some runs wrap rows."""
    pixels = set()
    r0 = int(rng.integers(0, h))
    c0 = int(rng.integers(0, w))
    for row in range(r0, min(h, r0 + int(rng.integers(1, h + 1)))):
        a = max(0, c0 + int(rng.integers(-2, 3)))
        b = min(w, a + int(rng.integers(1, w + 1)))
        pixels.update(range(row * w + a, row * w + b))
    for _ in range(int(rng.integers(0, 4))):
        start = int(rng.integers(0, w * h))
        pixels.update(range(start, min(w * h, start + int(rng.integers(1, 2 * w)))))
    return encode_mask(pixels, w, h)


def random_box(rng, w, h):
    if rng.random() < 0.2:  # integer corners, on or past the frame edges
        x0, y0 = int(rng.integers(-2, w - 1)), int(rng.integers(-2, h - 1))
        return Box2D(x0, y0, max(x0, 0) + int(rng.integers(1, w + 2)),
                     max(y0, 0) + int(rng.integers(1, h + 2)))
    x0, y0 = rng.uniform(-3.0, w - 1.5), rng.uniform(-3.0, h - 1.5)
    return Box2D(x0, y0, max(x0, 0.0) + rng.uniform(0.3, w),
                 max(y0, 0.0) + rng.uniform(0.3, h))


def random_coordinate(rng, size, on_mask):
    kind = rng.integers(0, 6)
    if kind == 0:  # on or just past an edge
        return float(rng.choice([-0.5, 0.0, 0.5, size - 1.0, size - 0.5, size, size + 2.0]))
    if kind == 1:  # a rounding tie
        return float(rng.integers(-2, size + 2)) + 0.5
    if kind == 2:  # far outside
        return float(rng.choice([-1e9, 1e9, -40.0, size + 40.0]))
    if kind == 3:
        return float(rng.uniform(-6.0, size + 6.0))
    return on_mask + float(rng.uniform(-1.0, 1.0))


def random_keypoints(rng, mask):
    w, h = mask.width, mask.height
    idx = mask_indices(mask)
    joints = np.empty((BASIC15.joint_count, 3))
    for j in range(BASIC15.joint_count):
        conf = 0.0 if rng.random() < 0.25 else float(rng.choice([1.0, rng.uniform(0.01, 1.0)]))
        row, col = divmod(int(rng.choice(idx)), w)
        joints[j] = (random_coordinate(rng, w, col), random_coordinate(rng, h, row), conf)
    if joints[ROOT, 2] == 0.0 and rng.random() < 0.9:
        joints[ROOT, 2] = 1.0
    return Keypoints2D(joints=joints)


def random_instance(rng, index):
    w, h = int(rng.integers(6, 40)), int(rng.integers(6, 30))
    depth = random_depth(rng, w, h)
    mask = random_mask(rng, w, h)
    box = random_box(rng, w, h)
    cam = CameraModel(fx=rng.uniform(50.0, 800.0), fy=rng.uniform(50.0, 800.0),
                      cx=rng.uniform(0.0, w), cy=rng.uniform(0.0, h),
                      world_scale=float(rng.choice([1.0, 1000.0])))
    percentile = (0.0, 1.0, float(rng.uniform(0.1, 49.0)))[index % 3]
    patch = PATCHES[index % len(PATCHES)]
    return depth, mask, box, random_keypoints(rng, mask), cam, percentile, patch


def note_coverage(seen, depth, det, patch, percentile):
    """Record which cases of the full-frame reference this instance hits."""
    w, h = depth.width, depth.height
    clamped = det.box.clamp(w, h)
    idx = mask_indices(det.mask)
    rows, cols = idx // w, idx % w
    if np.any((cols < np.ceil(clamped.x_min)) | (cols > np.floor(clamped.x_max))
              | (rows < np.ceil(clamped.y_min)) | (rows > np.floor(clamped.y_max))):
        seen["mask past box"] += 1
    if any(start % w + length > w for start, length in det.mask.runs):
        seen["run wraps a row"] += 1
    z_min, z_max = reference_depth_extrema(depth, det.mask, det.box, percentile)
    mask_support, box_support = reference_supports(depth, det.mask, det.box)
    r = patch // 2
    for u, v, conf in det.keypoints.joints:
        if conf <= 0.0:
            seen["zero confidence"] += 1
            continue
        ci, ri = round(u), round(v)
        if ci in (0, w - 1) or ri in (0, h - 1):
            seen["keypoint on edge"] += 1
        elif 0 < min(ci, ri, w - 1 - ci, h - 1 - ri) <= r:
            seen["keypoint near edge"] += 1
        elif min(ci, ri, w - 1 - ci, h - 1 - ri) < 0:
            seen["keypoint outside"] += 1
        vals = reference_window_values(depth, mask_support, u, v, patch)
        pass_name = "mask"
        if vals.size == 0:
            vals = reference_window_values(depth, box_support, u, v, patch,
                                           band=(z_min, z_max))
            pass_name = "box"
        if vals.size == 0:
            seen["mid-depth fallback"] += 1
        else:
            seen[f"{pass_name} pass, {'even' if vals.size % 2 == 0 else 'odd'} count"] += 1
    seen[f"patch {patch}"] += 1
    if percentile in (0.0, 1.0):
        seen[f"percentile {percentile}"] += 1


def test_cropped_lifting_equals_full_frame_reference():
    rng = np.random.default_rng(2002)
    seen = Counter()
    for index in range(INSTANCES):
        depth, mask, box, kps, cam, percentile, patch = random_instance(rng, index)
        assert mask_indices(mask).tolist() == sorted(decode_mask(mask))

        extrema = reference_depth_extrema(depth, mask, box, percentile)
        if extrema is None:
            seen["empty support"] += 1
            with pytest.raises(EmptySupportError):
                depth_extrema(depth, mask, box, percentile=percentile)
            with pytest.raises(EmptySupportError):
                lift_box(box, depth_extrema(depth, mask, box, percentile=percentile), cam)
            continue
        assert depth_extrema(depth, mask, box, percentile=percentile) == extrema

        expected_box = reference_lift_box(box, depth, mask, cam, 0.2, percentile)
        assert tuple(lift_box(box, extrema, cam).as_array()) == expected_box

        try:
            det = Detection(frame_index=0, box=box, mask=mask, keypoints=kps, score=1.0)
        except ValidationError:
            continue  # box misses the mask: only the box lift applies
        expected = reference_lift_pose(det, depth, cam, patch, percentile)
        if expected is None:
            seen["zero-confidence root"] += 1
            with pytest.raises(EmptySupportError):
                lift_pose(det, depth, cam, patch=patch, percentile=percentile)
            continue
        note_coverage(seen, depth, det, patch, percentile)
        lifting = LiftingConfig(depth_percentile=percentile, patch=patch)
        for got in (lift_pose(det, depth, cam, patch=patch, percentile=percentile),
                    lift_poses([det], depth, cam, patch, [extrema])[0],
                    lift_pose(det, depth, cam, patch=lifting.patch,
                              percentile=lifting.depth_percentile)):
            assert np.array_equal(got.joints, expected), index

    cases = ["mask past box", "run wraps a row", "zero confidence", "keypoint on edge",
             "keypoint near edge", "keypoint outside", "mid-depth fallback",
             "mask pass, even count", "mask pass, odd count",
             "box pass, even count", "box pass, odd count",
             "percentile 0.0", "percentile 1.0", "empty support", "zero-confidence root"]
    cases += [f"patch {p}" for p in PATCHES]
    missing = [case for case in cases if not seen[case]]
    assert not missing, f"generator never produced: {missing}"


def test_frame_kernel_equals_reference_per_detection():
    rng = np.random.default_rng(4004)
    seen = Counter()
    for index in range(FRAMES):
        w, h = int(rng.integers(6, 40)), int(rng.integers(6, 30))
        depth = random_depth(rng, w, h)
        cam = CameraModel(fx=rng.uniform(50.0, 800.0), fy=rng.uniform(50.0, 800.0),
                          cx=rng.uniform(0.0, w), cy=rng.uniform(0.0, h))
        percentile = (0.0, 1.0, float(rng.uniform(0.1, 49.0)))[index % 3]
        patch = PATCHES[index % len(PATCHES)]
        dets, extrema, expected, rootless = [], [], [], []
        for _ in range(int(rng.integers(0, 7))):
            mask, box = random_mask(rng, w, h), random_box(rng, w, h)
            try:
                det = Detection(frame_index=0, box=box, mask=mask,
                                keypoints=random_keypoints(rng, mask), score=1.0)
            except ValidationError:
                continue  # box misses the mask
            if det.keypoints.joints[ROOT, 2] == 0.0:
                rootless.append(det)
                continue
            joints = reference_lift_pose(det, depth, cam, patch, percentile)
            if joints is None:
                continue  # no depth under mask ∩ box
            dets.append(det)
            extrema.append(reference_depth_extrema(depth, mask, box, percentile))
            expected.append(joints)
            if len(dets) > 1:
                note_coverage(seen, depth, det, patch, percentile)

        poses = lift_poses(dets, depth, cam, patch, extrema)
        assert len(poses) == len(dets)
        for got, joints in zip(poses, expected):
            assert np.array_equal(got.joints, joints), index
        if rootless:
            with pytest.raises(EmptySupportError, match="^root joint"):
                lift_poses(dets + rootless[:1], depth, cam, patch, extrema + [(1.0, 2.0)])
        live = {int((det.keypoints.joints[:, 2] > 0.0).sum()) for det in dets}
        seen[f"{min(len(dets), 2)} detections"] += 1
        seen["different live-joint counts"] += len(live) > 1
        seen["zero-confidence root"] += bool(rootless)

    cases = ["0 detections", "1 detections", "2 detections", "different live-joint counts",
             "zero-confidence root", "mask pass, even count", "mask pass, odd count",
             "box pass, even count", "box pass, odd count", "mid-depth fallback"]
    cases += [f"patch {p}" for p in PATCHES]
    missing = [case for case in cases if not seen[case]]
    assert not missing, f"generator never produced: {missing}"


def test_frame_kernel_keeps_each_mask_to_its_own_detection():
    # Detection 0's last run ends on the frame's last pixel, and detection
    # 1's window reaches pixel 0, which only detection 0's mask covers: with
    # runs and pixels offset by detection x H x W, pixel 0 of detection 1
    # must stay off its mask, although it lies right after detection 0's run.
    w, h = 6, 5
    values = np.full((h, w), 3.0, dtype=np.float32)
    values[0, 0] = 1.0
    depth = DepthMap(width=w, height=h, values=values)
    cam = CameraModel(fx=100.0, fy=100.0, cx=3.0, cy=2.0)
    first = encode_mask(np.r_[0, w * h - 4:w * h], w, h)
    second = encode_mask(np.r_[2 * w + 2:2 * w + 5, 3 * w + 2:3 * w + 5], w, h)
    assert first.runs[-1].sum() == w * h and 0 not in mask_indices(second)
    joints = np.full((BASIC15.joint_count, 3), (3.0, 2.0, 1.0))
    joints[0] = (0.0, 0.0, 1.0)  # its 3x3 window holds pixel 0, off its mask and box
    dets = [Detection(frame_index=0, box=Box2D(0.0, 0.0, 5.0, 4.0), mask=first,
                      keypoints=Keypoints2D(joints=np.full((BASIC15.joint_count, 3),
                                                           (5.0, 4.0, 1.0))), score=1.0),
            Detection(frame_index=0, box=Box2D(2.0, 2.0, 4.0, 3.0), mask=second,
                      keypoints=Keypoints2D(joints=joints), score=1.0)]
    extrema = [depth_extrema(depth, det.mask, det.box) for det in dets]
    poses = lift_poses(dets, depth, cam, 3, extrema)
    for det, pose in zip(dets, poses):
        assert np.array_equal(pose.joints, reference_lift_pose(det, depth, cam, patch=3))
    assert poses[1].joints[0, 2] == 3.0  # mid depth, not pixel 0's 1.0


def test_frame_kernel_mixes_skeletons():
    # Joint counts and root rows differ per detection, so each dead joint
    # must copy its own detection's root.
    register_skeleton(Skeleton(name="trio", joint_names=("a", "b", "c"), root_index=1))
    rng = np.random.default_rng(77)
    depth = random_depth(rng, 24, 18)
    cam = CameraModel(fx=300.0, fy=300.0, cx=12.0, cy=9.0)
    trio = np.array([[3.0, 4.0, 0.0], [5.0, 6.0, 1.0], [30.0, 2.0, 0.5]])
    dets, roots = [], []
    for k, (joints, skeleton, root) in enumerate(
            [(None, BASIC15.name, ROOT), (trio, "trio", 1), (None, BASIC15.name, ROOT)]):
        mask = encode_mask(np.arange(24 * 18), 24, 18)
        if joints is None:
            joints = random_keypoints(rng, mask).joints
            joints[ROOT] = (2.0 + 8 * k, 3.0, 1.0)
        dets.append(Detection(frame_index=0, box=Box2D(0.0, 0.0, 23.0, 17.0), mask=mask,
                              keypoints=Keypoints2D(joints=joints, skeleton_id=skeleton),
                              score=1.0))
        roots.append(root)
    extrema = [depth_extrema(depth, det.mask, det.box) for det in dets]
    for det, root, pose in zip(dets, roots, lift_poses(dets, depth, cam, 3, extrema)):
        assert pose.skeleton_id == det.keypoints.skeleton_id and pose.root_index == root
        expected = reference_lift_pose(det, depth, cam, patch=3, root_index=root)
        assert np.array_equal(pose.joints, expected)


def test_frame_kernel_on_an_empty_frame():
    depth = DepthMap(width=4, height=3, values=np.ones((3, 4), dtype=np.float32))
    cam = CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    for patch in PATCHES:
        assert lift_poses([], depth, cam, patch, []) == []
    with pytest.raises(ValidationError, match="^patch must be an odd int >= 1, got 4$"):
        lift_poses([], depth, cam, 4, [])


def test_encode_mask_sorted_array_matches_set_input():
    rng = np.random.default_rng(9)
    for _ in range(50):
        w, h = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        pixels = rng.random(w * h) < rng.uniform(0.0, 1.0)
        expected = encode_mask(set(np.flatnonzero(pixels).tolist()), w, h)
        assert encode_mask(np.flatnonzero(pixels), w, h) == expected
        shuffled = rng.permutation(np.repeat(np.flatnonzero(pixels), 2))
        assert encode_mask(shuffled, w, h) == expected


def test_depth_band_bounds_compare_in_float64():
    # z_min interpolates a tenth of a float32 step above `a`, so a box-only
    # sample equal to `a` lies below the band, although float32(z_min) == a.
    a = np.float32(2.0)
    b = np.nextafter(a, np.float32(3.0))
    values = np.zeros((2, 13), dtype=np.float32)
    values[0, :11] = b
    values[0, 0] = values[0, 12] = a
    depth = DepthMap(width=13, height=2, values=values)
    mask = encode_mask(np.arange(11), 13, 2)
    joints = np.zeros((BASIC15.joint_count, 3))
    joints[ROOT] = (5.0, 0.0, 1.0)
    joints[0] = (12.0, 0.0, 1.0)  # in the box, off the mask
    det = Detection(frame_index=0, box=Box2D(0.0, 0.0, 12.0, 1.0), mask=mask,
                    keypoints=Keypoints2D(joints=joints), score=1.0)
    cam = CameraModel(fx=100.0, fy=100.0, cx=6.0, cy=1.0)
    z_min, z_max = depth_extrema(depth, mask, det.box, percentile=1.0)
    assert float(a) < z_min and np.float32(z_min) == a
    expected = reference_lift_pose(det, depth, cam, patch=1, percentile=1.0)
    assert expected[0, 2] == (z_min + z_max) / 2.0  # no band sample: mid depth
    got = lift_pose(det, depth, cam, patch=1, percentile=1.0)
    assert np.array_equal(got.joints, expected)
