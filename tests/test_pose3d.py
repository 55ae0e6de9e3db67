import math

import numpy as np
import pytest

from oracles import project
from pose3dtrack.errors import EmptySupportError, ValidationError
from pose3dtrack.ingest import (
    BASIC15,
    Box2D,
    CameraModel,
    DepthMap,
    Detection,
    Keypoints2D,
    LiftingConfig,
    Mask2D,
    encode_mask,
)
from pose3dtrack.pose3d import lift_pose, lift_poses


ROOT = BASIC15.root_index


def full_mask(w, h):
    return Mask2D(width=w, height=h, runs=((0, w * h),))


def detection_with_joints(joints, box=(0.0, 0.0, 19.0, 19.0), wh=(20, 20), frame=0):
    return Detection(
        frame_index=frame,
        box=Box2D(*box),
        mask=full_mask(*wh),
        keypoints=Keypoints2D(joints=np.asarray(joints, dtype=np.float64)),
        score=1.0,
    )


def constant_depth(w, h, value):
    return DepthMap(width=w, height=h, values=np.full((h, w), value, dtype=np.float32))


def centered_joints(u, v, conf=1.0):
    return np.tile([u, v, conf], (15, 1)).astype(np.float64)


def test_joint_on_optical_axis_maps_to_origin():
    cam = CameraModel(fx=500.0, fy=500.0, cx=10.0, cy=10.0)
    det = detection_with_joints(centered_joints(10.0, 10.0))
    pose = lift_pose(det, constant_depth(20, 20, 3.0), cam)
    assert pose.joints[0, 0] == 0.0
    assert pose.joints[0, 1] == 0.0
    assert pose.joints[0, 2] == 3.0


def test_pinned_pinhole_example():
    cam = CameraModel(fx=500.0, fy=500.0, cx=0.0, cy=0.0)
    joints = centered_joints(5.0, 5.0)
    joints[0] = (100.0, 50.0, 1.0)
    det = detection_with_joints(joints, box=(0.0, 0.0, 110.0, 60.0), wh=(128, 128))
    pose = lift_pose(det, constant_depth(128, 128, 2.0), cam)
    np.testing.assert_allclose(pose.joints[0, :3], (0.4, 0.2, 2.0), rtol=0, atol=1e-12)


def test_confidence_zero_joints_collapse_to_root():
    joints = centered_joints(8.0, 8.0)
    joints[:ROOT, 2] = 0.0  # everything except the root
    det = detection_with_joints(joints)
    cam = CameraModel(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
    pose = lift_pose(det, constant_depth(20, 20, 4.0), cam)
    root = pose.joints[ROOT, :3]
    for j in range(ROOT):
        np.testing.assert_array_equal(pose.joints[j, :3], root)
        assert pose.joints[j, 3] == 0.0
    assert pose.joints[ROOT, 3] == 1.0


def test_zero_confidence_root_rejected():
    joints = centered_joints(8.0, 8.0)
    joints[ROOT, 2] = 0.0
    det = detection_with_joints(joints)
    cam = CameraModel(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
    with pytest.raises(EmptySupportError, match="root"):
        lift_pose(det, constant_depth(20, 20, 4.0), cam)


def test_all_invalid_depth_raises_empty_support():
    det = detection_with_joints(centered_joints(8.0, 8.0))
    cam = CameraModel(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
    with pytest.raises(EmptySupportError):
        lift_pose(det, constant_depth(20, 20, 0.0), cam)


def test_patch_must_be_odd():
    det = detection_with_joints(centered_joints(8.0, 8.0))
    cam = CameraModel(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
    with pytest.raises(ValidationError, match="patch"):
        lift_pose(det, constant_depth(20, 20, 2.0), cam, patch=4)


@pytest.mark.parametrize("patch", [True, 5.0, 3.0])
def test_patch_must_be_an_odd_int_for_both_lifting_calls(patch):
    det = detection_with_joints(centered_joints(8.0, 8.0))
    depth = constant_depth(20, 20, 2.0)
    cam = CameraModel(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
    message = f"^patch must be an odd int >= 1, got {patch!r}$"
    with pytest.raises(ValidationError, match=message):
        lift_pose(det, depth, cam, patch=patch)
    with pytest.raises(ValidationError, match=message):
        lift_poses([det], depth, cam, patch, [(2.0, 2.0)])


def test_frame_kernel_rejects_a_patch_over_its_maximum():
    det = detection_with_joints(centered_joints(8.0, 8.0))
    cam = CameraModel(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
    with pytest.raises(ValidationError, match="^patch must be at most 101, got 4001$"):
        lift_poses([det], constant_depth(20, 20, 2.0), cam, 4001, [(2.0, 2.0)])


def test_frame_kernel_rejects_a_mask_laid_out_on_another_frame():
    # A 20x20 mask on a 40x10 raster has as many pixels, so only the size
    # check tells that its runs would be read through the wrong width.
    det = detection_with_joints(centered_joints(8.0, 8.0))
    depth = constant_depth(40, 10, 2.0)
    cam = CameraModel(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
    with pytest.raises(ValidationError, match="^mask is 20x20 but depth is 40x10$"):
        lift_poses([det], depth, cam, 5, [(1.0, 2.0)])


@pytest.mark.parametrize("dets, extrema, message", [
    (1, [], "^0 depth spans for 1 detections$"),
    (1, [(2.0, 2.0), (1.0, 3.0)], "^2 depth spans for 1 detections$"),
    (2, [(2.0, 2.0)], "^1 depth spans for 2 detections$"),
    (0, [(2.0, 2.0)], "^1 depth spans for 0 detections$"),
])
def test_frame_kernel_takes_one_depth_span_per_detection(dets, extrema, message):
    det = detection_with_joints(centered_joints(8.0, 8.0))
    cam = CameraModel(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
    with pytest.raises(ValidationError, match=message):
        lift_poses([det] * dets, constant_depth(20, 20, 2.0), cam, 5, extrema)


def test_median_window_beats_single_noisy_pixel():
    values = np.full((20, 20), 5.0, dtype=np.float32)
    values[8, 8] = 9.0  # spike right under the joint
    depth = DepthMap(width=20, height=20, values=values)
    det = detection_with_joints(centered_joints(8.0, 8.0))
    cam = CameraModel(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
    pose = lift_pose(det, depth, cam, patch=5)
    assert pose.joints[0, 2] == 5.0


def test_box_fallback_rejects_other_person_depth():
    # Joint pixel owned by a nearer person: its depth must not leak in.
    values = np.full((20, 20), 2.0, dtype=np.float32)  # nearer person everywhere
    values[:, 16:] = 6.0  # this person's visible sliver
    depth = DepthMap(width=20, height=20, values=values)
    mask = encode_mask({r * 20 + c for r in range(20) for c in range(16, 20)}, 20, 20)
    joints = centered_joints(10.0, 10.0)  # joints inside the occluded area
    det = Detection(frame_index=0, box=Box2D(0.0, 0.0, 19.0, 19.0), mask=mask,
                    keypoints=Keypoints2D(joints=joints), score=1.0)
    cam = CameraModel(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
    pose = lift_pose(det, depth, cam)
    assert pose.joints[ROOT, 2] == 6.0


def test_pinhole_round_trip_within_tolerance():
    cam = CameraModel(fx=640.0, fy=600.0, cx=321.5, cy=239.5)
    rng = np.random.default_rng(9)
    joints = np.column_stack([
        rng.uniform(5, 15, size=15),
        rng.uniform(5, 15, size=15),
        np.ones(15),
    ])
    det = detection_with_joints(joints)
    pose = lift_pose(det, constant_depth(20, 20, 3.7), cam)
    for j in range(15):
        u, v = project(cam, *pose.joints[j, :3])
        assert math.isclose(u, joints[j, 0], abs_tol=1e-6)
        assert math.isclose(v, joints[j, 1], abs_tol=1e-6)


def test_depth_scaling_scales_coordinates_exactly():
    cam = CameraModel(fx=200.0, fy=200.0, cx=10.0, cy=10.0)
    rng = np.random.default_rng(13)
    values = rng.uniform(1.0, 5.0, size=(20, 20)).astype(np.float32)
    joints = centered_joints(8.0, 12.0)
    det = detection_with_joints(joints)
    pose1 = lift_pose(det, DepthMap(width=20, height=20, values=values), cam)
    pose2 = lift_pose(det, DepthMap(width=20, height=20, values=values * 2.0), cam)
    np.testing.assert_array_equal(pose2.joints[:, :3], pose1.joints[:, :3] * 2.0)


def test_root_depth_order_matches_median_mask_depth_order():
    from pose3dtrack.ingest import TrackerConfig, mask_indices
    from pose3dtrack.synth import builtin, generate

    seq, _ = generate(builtin("three_person_mix"))
    lifting = LiftingConfig()
    for frame in (seq.frames[0], seq.frames[10], seq.frames[30]):
        depth = frame.load()
        flat = depth.values.reshape(-1)
        roots = []
        medians = []
        for det in frame.detections:
            pose = lift_pose(det, depth, seq.camera, patch=lifting.patch,
                             percentile=lifting.depth_percentile)
            roots.append(pose.root[2])
            vals = flat[mask_indices(det.mask)]
            medians.append(float(np.median(vals[vals > 0])))
        assert np.argsort(roots).tolist() == np.argsort(medians).tolist()


def test_lifting_patch_default_and_override():
    lifting = LiftingConfig(patch=3)
    det = detection_with_joints(centered_joints(8.0, 8.0))
    cam = CameraModel(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
    pose = lift_pose(det, constant_depth(20, 20, 2.5), cam, patch=lifting.patch,
                     percentile=lifting.depth_percentile)
    assert pose.joints[0, 2] == 2.5
    assert LiftingConfig().patch == 5
