"""``tracking.lift_frame``, the one per-frame lifting step: per detection,
its items are the box lifted from its measured span and its pose as
``lift_pose`` gives it alone, with the same defaults, and the frame's first
unliftable detection in input order is the one reported."""

import numpy as np
import pytest

from pose3dtrack.errors import EmptySupportError
from pose3dtrack.geometry import depth_extrema, lift_box
from pose3dtrack.ingest import (
    BASIC15,
    Box2D,
    CameraModel,
    DepthMap,
    Detection,
    Keypoints2D,
    LiftingConfig,
    Mask2D,
)
from pose3dtrack.pose3d import lift_pose
from pose3dtrack.synth import BUILTIN_NAMES, builtin, generate
from pose3dtrack.tracking import lift_frame

LIFTINGS = [LiftingConfig(), LiftingConfig(min_thickness=0.5, depth_percentile=0.0, patch=3)]


@pytest.mark.parametrize("lifting", LIFTINGS, ids=["default", "thick_p0_patch3"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_lift_frame_items_are_each_detections_box_and_pose(name, lifting):
    seq, _ = generate(builtin(name, seed=7, depth_noise=0.05))
    cam, detections = seq.camera, 0
    for frame in seq.frames:
        depth = frame.load()
        expected = []
        for det in frame.detections:
            span = depth_extrema(depth, det.mask, det.box, lifting.depth_percentile)
            expected.append((det, lift_box(det.box, span, cam, lifting.min_thickness),
                             lift_pose(det, depth, cam, lifting.patch, lifting.depth_percentile)))
        assert lift_frame(frame.detections, depth, cam, lifting) == expected
        detections += len(expected)
    assert detections > 0


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_default_lift_box_and_lift_pose_lift_as_the_default_lift_frame(name):
    seq, _ = generate(builtin(name, seed=7, depth_noise=0.05))
    cam, lifting = seq.camera, LiftingConfig()
    for frame in seq.frames:
        depth = frame.load()
        assert lift_frame(frame.detections, depth, cam, lifting) == [
            (det, lift_box(det.box, depth_extrema(depth, det.mask, det.box,
                                                  lifting.depth_percentile), cam),
             lift_pose(det, depth, cam))
            for det in frame.detections]


def test_lift_frame_reports_the_first_unliftable_detection_in_input_order():
    # An 8x4 raster with depth on its left half only: the left detection
    # has no root, the right one no depth under its mask.
    values = np.zeros((4, 8), dtype=np.float32)
    values[:, :4] = 2.0
    depth = DepthMap(width=8, height=4, values=values)
    cam = CameraModel(fx=100.0, fy=100.0, cx=4.0, cy=2.0)

    def detection(left, root_conf):
        c0 = 0 if left else 4
        joints = np.tile([c0 + 1.0, 1.0, 1.0], (15, 1))
        joints[BASIC15.root_index, 2] = root_conf
        mask = Mask2D(width=8, height=4, runs=[(r * 8 + c0, 4) for r in range(4)])
        return Detection(frame_index=0, box=Box2D(c0, 0.0, c0 + 3.0, 3.0), mask=mask,
                         keypoints=Keypoints2D(joints=joints), score=1.0)

    def error(*dets):
        with pytest.raises(EmptySupportError) as info:
            lift_frame(dets, depth, cam, LiftingConfig())
        return str(info.value)

    rootless, no_depth = detection(True, 0.0), detection(False, 1.0)
    assert error(rootless, no_depth) == "root joint has zero confidence; cannot place pose"
    assert error(no_depth, rootless) == "no valid depth pixel inside mask ∩ box"
    assert lift_frame((), depth, cam, LiftingConfig()) == []
