import json

import numpy as np
import pytest

from pose3dtrack.errors import ScenarioError
from pose3dtrack.geometry import depth_extrema, iou2d, iou3d, lift_box
from pose3dtrack.ingest import CameraModel, LiftingConfig, mask_indices
from pose3dtrack.synth import (
    BUILTIN_NAMES,
    PersonSpec,
    Scenario,
    builtin,
    generate,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario_bundle,
)


CAM = CameraModel(fx=600.0, fy=600.0, cx=320.0, cy=240.0)


def two_person_overlap_scenario(z_near=2.0, z_far=6.0):
    """Near and far person overlapping in image space at every frame."""
    return Scenario(
        name="overlap",
        persons=(
            PersonSpec(((0, (0.0, 0.0, z_near)), (4, (0.1, 0.0, z_near))), (0.5, 1.0, 0.3)),
            PersonSpec(((0, (0.2, 0.0, z_far)), (4, (0.3, 0.0, z_far))), (1.5, 3.0, 0.3)),
        ),
        frames=5, fps=20.0, camera=CAM, width=640, height=480,
    )


def test_static_person_identical_frames():
    sc = Scenario(
        name="static",
        persons=(PersonSpec(((0, (0.3, 0.0, 4.0)),), (0.5, 1.5, 0.3)),),
        frames=3, fps=20.0, camera=CAM, width=640, height=480,
    )
    seq, gt = generate(sc)
    d0 = seq.frames[0].detections[0]
    for fr in seq.frames[1:]:
        det = fr.detections[0]
        assert det.box == d0.box
        assert det.mask == d0.mask
        np.testing.assert_array_equal(det.keypoints.joints, d0.keypoints.joints)
        np.testing.assert_array_equal(fr.load().values, seq.frames[0].load().values)
    for f in range(3):
        np.testing.assert_array_equal(dict(gt.frames[f])[0].joints,
                                      dict(gt.frames[0])[0].joints)


def test_z_buffer_near_person_owns_shared_pixels():
    seq, _ = generate(two_person_overlap_scenario())
    frame = seq.frames[0]
    assert len(frame.detections) == 2
    near, far = frame.detections
    near_pixels = set(mask_indices(near.mask).tolist())
    far_pixels = set(mask_indices(far.mask).tolist())
    assert near_pixels.isdisjoint(far_pixels)
    depth = frame.load()
    flat = depth.values.reshape(-1)
    # near mask pixels carry the near surface depth, which starts at z=2
    assert all(1.9 <= flat[i] <= 2.4 for i in list(near_pixels)[:200])
    # far person's visible pixels sit at its own depth, never the near one's
    assert all(5.9 <= flat[i] <= 6.4 for i in list(far_pixels)[:200])
    # the near box region was carved out of the far mask
    b = near.box
    carved = {int(r) * 640 + int(c)
              for r in range(int(b.y_min) + 1, int(b.y_max) - 1)
              for c in range(int(b.x_min) + 1, int(b.x_max) - 1, 7)}
    assert carved & near_pixels
    assert not (carved & far_pixels)


def test_dropout_removes_detection_keeps_ground_truth():
    sc = builtin("full_occlusion", gap=5)
    seq, gt = generate(sc)
    for f in range(12, 17):
        assert seq.frames[f].detections == ()
        assert len(gt.frames[f]) == 1
    assert len(seq.frames[11].detections) == 1
    assert len(seq.frames[17].detections) == 1


def test_rendered_depth_backprojects_into_body_extent():
    sc = builtin("parallel_walk")
    seq, _ = generate(sc)
    for fr in (seq.frames[0], seq.frames[15]):
        depth = fr.load()
        for pid, det in enumerate(fr.detections):
            spec = sc.persons[pid]
            box3d = spec.box_at(fr.frame_index)
            idx = mask_indices(det.mask)
            sub = idx[:: max(1, idx.size // 400)]
            flat = depth.values.reshape(-1)
            for i in sub:
                z = float(flat[i])
                u, v = int(i) % 640, int(i) // 640
                x = (u - CAM.cx) * z / CAM.fx
                y = (v - CAM.cy) * z / CAM.fy
                eps = 1e-3
                assert box3d.z_min - eps <= z <= box3d.z_max + eps
                assert box3d.x_min - eps <= x <= box3d.x_max + eps
                assert box3d.y_min - eps <= y <= box3d.y_max + eps


def test_lift_box_recovers_true_z_interval():
    sc = builtin("parallel_walk")
    seq, _ = generate(sc)
    fr = seq.frames[10]
    depth = fr.load()
    for pid, det in enumerate(fr.detections):
        true_box = sc.persons[pid].box_at(fr.frame_index)
        lifted = lift_box(det.box, depth_extrema(depth, det.mask, det.box, percentile=0.0),
                          CAM, min_thickness=0.01)
        body_depth = true_box.z_max - true_box.z_min
        assert abs(lifted.z_min - true_box.z_min) < 1e-6
        assert true_box.z_min <= lifted.z_max <= true_box.z_max + 1e-6
        assert lifted.z_max > true_box.z_max - 0.35 * body_depth


def test_depth_cross_boxes_coincide_in_2d_but_not_3d():
    sc = builtin("depth_cross")
    seq, _ = generate(sc)
    lifting = LiftingConfig()
    best = 0.0
    for fr in seq.frames:
        if len(fr.detections) != 2:
            continue
        a, b = fr.detections
        v2 = iou2d(a.box, b.box)
        if v2 > best:
            best = v2
            depth = fr.load()
            p = lifting.depth_percentile
            box_a = lift_box(a.box, depth_extrema(depth, a.mask, a.box, percentile=p), CAM)
            box_b = lift_box(b.box, depth_extrema(depth, b.mask, b.box, percentile=p), CAM)
            v3 = iou3d(box_a, box_b)
    assert best > 0.9
    assert v3 < 0.1


def test_determinism_same_seed_bit_identical():
    sc = builtin("three_person_mix", seed=5, depth_noise=0.02, keypoint_noise=0.5)
    seq1, gt1 = generate(sc)
    seq2, gt2 = generate(sc)
    for f1, f2 in zip(seq1.frames, seq2.frames):
        assert f1.load().values.tobytes() == f2.load().values.tobytes()
        for d1, d2 in zip(f1.detections, f2.detections):
            assert d1.keypoints.joints.tobytes() == d2.keypoints.joints.tobytes()
            assert d1.mask == d2.mask
    for f in gt1.frames:
        for (i1, p1), (i2, p2) in zip(gt1.frames[f], gt2.frames[f]):
            assert i1 == i2
            np.testing.assert_array_equal(p1.joints, p2.joints)


def test_noise_changes_depth_not_ground_truth():
    clean = generate(builtin("parallel_walk", seed=3))
    noisy = generate(builtin("parallel_walk", seed=3, depth_noise=0.05))
    assert (clean[0].frames[0].load().values.tobytes()
            != noisy[0].frames[0].load().values.tobytes())
    for f in clean[1].frames:
        for (ia, pa), (ib, pb) in zip(clean[1].frames[f], noisy[1].frames[f]):
            assert ia == ib
            np.testing.assert_array_equal(pa.joints, pb.joints)
    # detections are depth-independent, so they stay identical too
    for fa, fb in zip(clean[0].frames, noisy[0].frames):
        for da, db in zip(fa.detections, fb.detections):
            assert da.box == db.box and da.mask == db.mask


def test_person_behind_camera_rejected():
    sc = Scenario(
        name="behind",
        persons=(PersonSpec(((0, (0.0, 0.0, 1.0)), (4, (0.0, 0.0, -1.0))), (0.5, 1.0, 0.2)),),
        frames=5, fps=20.0, camera=CAM, width=64, height=48,
    )
    with pytest.raises(ScenarioError, match="behind camera"):
        generate(sc)


def test_builtin_catalog_and_unknown_name():
    for name in BUILTIN_NAMES:
        sc = builtin(name)
        assert sc.name == name
        assert sc.frames > 0
    sc = builtin("parallel_walk")
    assert len(sc.persons) == 2
    with pytest.raises(ScenarioError, match="unknown scenario"):
        builtin("nope")


def test_dropout_bounds_validated():
    with pytest.raises(ScenarioError, match="dropout"):
        Scenario(
            name="bad",
            persons=(PersonSpec(((0, (0.0, 0.0, 2.0)),), (0.5, 1.0, 0.2)),),
            frames=5, fps=20.0, camera=CAM, width=64, height=48,
            dropouts=((0, 3, 9),),
        )


def test_scenario_json_round_trip(tmp_path):
    sc = builtin("three_person_mix", gap=5, seed=9, depth_noise=0.01)
    obj = scenario_to_dict(sc)
    assert scenario_from_dict(obj) == sc
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert load_scenario(path) == sc


def test_bundle_writes_all_artifacts(tmp_path):
    sc = builtin("parallel_walk")
    paths = write_scenario_bundle(sc, tmp_path / "out")
    assert paths["detections"].is_file()
    assert paths["ground_truth"].is_file()
    assert paths["scenario"].is_file()
    assert paths["config"].is_file()
    dpt_files = sorted(paths["depth_dir"].glob("*.dpt"))
    assert len(dpt_files) == sc.frames
