import dataclasses
import math

import numpy as np
import pytest

from oracles import clear_frame_counts
from pose3dtrack.errors import EvaluationError
from pose3dtrack.ingest import BASIC15, TrackerConfig
from pose3dtrack.metrics import (
    AUC_THRESHOLDS,
    GroundTruth,
    auc_rel,
    ground_truth_from_tracks,
    match_frame,
    matched_pose_pairs,
    mota,
    pck3d_rel,
    root_distances,
)
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.synth import builtin, generate, ground_truth_tracks
from pose3dtrack.tracking import run_sequence


def make_pose(x, y, z, conf=1.0):
    joints = np.tile([x, y, z, conf], (15, 1)).astype(np.float64)
    return Pose3D(joints=joints, root_index=BASIC15.root_index, skeleton_id=BASIC15.name)


def spread_pose(root, step=0.1):
    """Pose with distinct joints fanned out around the root."""
    joints = np.zeros((15, 4))
    for j in range(15):
        joints[j, :3] = np.asarray(root, dtype=np.float64) + step * np.array(
            [j % 3, (j // 3) % 3, j // 9], dtype=np.float64)
    joints[:, 3] = 1.0
    joints[BASIC15.root_index, :3] = root
    return Pose3D(joints=joints, root_index=BASIC15.root_index, skeleton_id=BASIC15.name)


def fragment(track_id, frames_positions):
    """Track-shaped record allowed to skip frames (evaluation input only)."""
    from pose3dtrack.geometry import Box3D
    from pose3dtrack.tracking import OBSERVED, Track, TrackState
    track = Track(track_id=track_id, birth_frame=frames_positions[0][0])
    for frame, pos in frames_positions:
        track.states.append(TrackState(
            frame_index=frame, kind=OBSERVED,
            box3d=Box3D(pos[0] - 0.4, pos[0] + 0.4, pos[1] - 0.4, pos[1] + 0.4,
                        pos[2] - 0.4, pos[2] + 0.4),
            pose3d=make_pose(*pos),
        ))
    return track


# ---------------------------------------------------------------------------
# match_frame
# ---------------------------------------------------------------------------

def test_match_identical_sets():
    gts = [(0, make_pose(0, 0, 2)), (1, make_pose(3, 0, 2))]
    preds = [(10, make_pose(0, 0, 2)), (11, make_pose(3, 0, 2))]
    assert match_frame(gts, preds, radius=0.5) == [(0, 10), (1, 11)]


def test_match_beyond_radius_is_no_match():
    gts = [(0, make_pose(0, 0, 2))]
    preds = [(10, make_pose(2, 0, 2))]
    assert match_frame(gts, preds, radius=0.5) == []


def test_match_pinned_two_by_two():
    # distance matrix [[0.1, 0.5], [0.6, 0.2]] -> diagonal matching
    gts = [(0, make_pose(0.0, 0, 2)), (1, make_pose(1.0, 0, 2))]
    preds = [(10, make_pose(0.1, 0, 2)), (11, make_pose(1.2, 0, 2))]
    d00 = 0.1
    d01 = abs(1.2 - 0.0)
    assert d00 < d01
    assert match_frame(gts, preds, radius=1.5) == [(0, 10), (1, 11)]


def test_match_maximizes_pair_count_before_distance():
    # Putting g0 on the nearest pred would leave g1 unmatched.
    gts = [(0, make_pose(0.0, 0, 2)), (1, make_pose(0.4, 0, 2))]
    preds = [(10, make_pose(0.05, 0, 2)), (11, make_pose(-0.3, 0, 2))]
    matches = match_frame(gts, preds, radius=0.5)
    assert len(matches) == 2


# ---------------------------------------------------------------------------
# MOTA
# ---------------------------------------------------------------------------

def gt_two_people(frames=10):
    gt_frames = {
        f: [(0, make_pose(0.0, 0.0, 2.0)), (1, make_pose(5.0, 0.0, 2.0))]
        for f in range(frames)
    }
    return GroundTruth(frames=gt_frames, skeleton_id=BASIC15.name)


def test_mota_perfect_tracker():
    gt = gt_two_people()
    tracks = [
        fragment(0, [(f, (0.0, 0.0, 2.0)) for f in range(10)]),
        fragment(1, [(f, (5.0, 0.0, 2.0)) for f in range(10)]),
    ]
    report = mota(gt, tracks, radius=0.5)
    assert report.mota == 1.0
    assert (report.misses, report.false_positives, report.id_switches) == (0, 0, 0)
    assert report.gt_total == 20


def test_mota_constructed_0p8_scenario():
    # 2 misses + 1 false positive + 1 identity switch over 20 ground truths.
    gt = gt_two_people()
    t0 = fragment(0, [(f, (0.0, 0.0, 2.0)) for f in range(10) if f not in (3, 4)])
    t1 = fragment(1, [(f, (5.0, 0.0, 2.0)) for f in range(7)])
    t2 = fragment(2, [(6, (50.0, 0.0, 2.0))])
    t3 = fragment(3, [(f, (5.0, 0.0, 2.0)) for f in range(7, 10)])
    report = mota(gt, [t0, t1, t2, t3], radius=0.5)
    assert report.misses == 2
    assert report.false_positives == 1
    assert report.id_switches == 1
    assert report.mota == 0.8


def test_mota_all_missed_is_zero():
    gt = gt_two_people()
    report = mota(gt, [], radius=0.5)
    assert report.mota == 0.0
    assert report.misses == 20


def test_mota_empty_ground_truth_rejected():
    gt = GroundTruth(frames={}, skeleton_id=BASIC15.name)
    with pytest.raises(EvaluationError):
        mota(gt, [], radius=0.5)


def test_mota_internal_consistency_invariant():
    seq, gt = generate(builtin("three_person_mix"))
    tracks = run_sequence(seq, TrackerConfig())
    r = mota(gt, tracks, radius=0.5)
    assert r.mota == 1.0 - (r.misses + r.false_positives + r.id_switches) / r.gt_total
    assert sum(f["misses"] for f in r.per_frame) == r.misses
    assert sum(f["false_positives"] for f in r.per_frame) == r.false_positives
    assert sum(f["id_switches"] for f in r.per_frame) == r.id_switches


def test_mota_extra_false_positive_decreases_score():
    seq, gt = generate(builtin("parallel_walk"))
    tracks = run_sequence(seq, TrackerConfig())
    base = mota(gt, tracks, radius=0.5)
    spoiled = tracks + [fragment(99, [(5, (500.0, 0.0, 2.0))])]
    worse = mota(gt, spoiled, radius=0.5)
    assert worse.mota < base.mota
    assert math.isclose(worse.mota, base.mota - 1.0 / base.gt_total, abs_tol=1e-12)


def test_mota_identity_persistence_prevents_spurious_switch():
    # Two tracks sit equidistant-ish from a single gt; once matched, the gt
    # must keep its track even if the other drifts slightly closer.
    gt_frames = {f: [(0, make_pose(0.0, 0.0, 2.0))] for f in range(3)}
    gt = GroundTruth(frames=gt_frames)
    ta = fragment(0, [(0, (0.10, 0.0, 2.0)), (1, (0.10, 0.0, 2.0)), (2, (0.10, 0.0, 2.0))])
    tb = fragment(1, [(1, (0.05, 0.0, 2.0)), (2, (0.05, 0.0, 2.0))])
    report = mota(gt, [ta, tb], radius=0.5)
    assert report.id_switches == 0
    assert report.false_positives == 2  # tb never matches


def test_mota_persistence_and_matching_share_one_root_distance():
    # Track 0 sits exactly at the radius by the batched distance that
    # matching uses; a scalar norm of the same difference rounds it to
    # 0.5000000000000001.  Persistence must compare the same distance, so
    # the person keeps track 0 in frame 1 although track 1 is nearer.
    g = (-1.679, 1.133, 2.287)
    p = (-1.935841986207957, 0.7534063805743082, 2.0871478591256656)
    gt = GroundTruth(frames={0: [(0, make_pose(*g))], 1: [(0, make_pose(*g))]})
    t0 = fragment(0, [(0, p), (1, p)])
    t1 = fragment(1, [(1, (g[0] + 0.3, g[1], g[2]))])
    assert root_distances(gt.frames[0], [(0, t0.states[0].pose3d)])[0, 0] == 0.5
    report = mota(gt, [t0, t1], radius=0.5)
    assert (report.mota, report.id_switches, report.false_positives) == (0.5, 0, 1)


def test_mota_per_frame_counts_match_brute_force_oracle():
    for name in ("parallel_walk", "depth_cross", "three_person_mix"):
        seq, gt = generate(builtin(name))
        for mode in ("iou3d", "iou2d"):
            tracks = run_sequence(seq, TrackerConfig(association_mode=mode))
            report = mota(gt, tracks, radius=0.5)
            preds_by_frame = {}
            for t in tracks:
                for s in t.states:
                    preds_by_frame.setdefault(s.frame_index, []).append(
                        (t.track_id, s.pose3d.root))
            prev = {}
            for row in report.per_frame:
                f = row["frame"]
                gts = [(g, p.root) for g, p in sorted(gt.frames.get(f, []))]
                preds = sorted(preds_by_frame.get(f, []))
                matches, misses, fp, switches = clear_frame_counts(gts, preds, prev, 0.5)
                assert row["misses"] == misses, (name, mode, f)
                assert row["false_positives"] == fp, (name, mode, f)
                assert row["id_switches"] == switches, (name, mode, f)
                prev.update(matches)


# ---------------------------------------------------------------------------
# PCK / AUC
# ---------------------------------------------------------------------------

def test_pck_exact_predictions():
    gt_pose = spread_pose((0.0, 0.0, 3.0))
    report = pck3d_rel([(gt_pose, gt_pose)], tau=0.15)
    assert report.pck_rel == 100.0
    assert report.auc_rel == 100.0


def test_pck_one_joint_off():
    gt_pose = spread_pose((0.0, 0.0, 3.0))
    joints = gt_pose.joints.copy()
    joints[2, 0] += 0.2
    pred = Pose3D(joints=joints, root_index=gt_pose.root_index,
                  skeleton_id=gt_pose.skeleton_id)
    report = pck3d_rel([(gt_pose, pred)], tau=0.15)
    assert math.isclose(report.pck_rel, 100.0 * 14.0 / 15.0, abs_tol=1e-9)
    assert report.per_joint["r_shoulder"] == 0.0
    assert report.per_joint["head"] == 100.0


def test_pck_boundary_inclusive():
    # Joints all at the root keep the constructed error exactly tau in float.
    tau = 0.125
    gt_pose = make_pose(0.0, 0.0, 3.0)
    joints = gt_pose.joints.copy()
    joints[:, 0] += tau
    joints[gt_pose.root_index, 0] -= tau  # keep the root aligned
    pred = Pose3D(joints=joints, root_index=gt_pose.root_index,
                  skeleton_id=gt_pose.skeleton_id)
    report = pck3d_rel([(gt_pose, pred)], tau=tau)
    assert report.pck_rel == 100.0


def test_pck_translation_invariance():
    rng = np.random.default_rng(17)
    gt_pose = spread_pose((0.0, 0.0, 3.0))
    pred_joints = gt_pose.joints.copy()
    pred_joints[:, :3] += rng.normal(0, 0.05, size=(15, 3))
    pred = Pose3D(joints=pred_joints, root_index=gt_pose.root_index,
                  skeleton_id=gt_pose.skeleton_id)
    base = pck3d_rel([(gt_pose, pred)], tau=0.15).pck_rel
    shifted = Pose3D(joints=pred_joints + np.array([3.0, -2.0, 7.0, 0.0]),
                     root_index=gt_pose.root_index, skeleton_id=gt_pose.skeleton_id)
    assert abs(pck3d_rel([(gt_pose, shifted)], tau=0.15).pck_rel - base) < 1e-9


def uniform_error_pair(error):
    """(gt, pred) where every counted joint is exactly `error` meters off.

    The root is excluded via ground-truth validity: after root alignment its
    error is always zero, so it cannot carry a uniform offset.
    """
    gt_joints = np.tile([0.0, 0.0, 3.0, 1.0], (15, 1))
    gt_joints[BASIC15.root_index, 3] = 0.0
    gt_pose = Pose3D(joints=gt_joints, root_index=BASIC15.root_index,
                     skeleton_id=BASIC15.name)
    pred_joints = np.tile([0.0, 0.0, 3.0, 1.0], (15, 1))
    pred_joints[:, 0] += error
    pred_joints[BASIC15.root_index, 0] -= error
    pred = Pose3D(joints=pred_joints, root_index=BASIC15.root_index,
                  skeleton_id=BASIC15.name)
    return gt_pose, pred


def test_pck_far_predictions_score_zero():
    assert auc_rel([uniform_error_pair(0.5)]) == 0.0


def test_auc_uniform_error_threshold_count():
    # 75 mm error passes the 16 thresholds from 75 mm to 150 mm inclusive.
    value = auc_rel([uniform_error_pair(0.075)])
    assert math.isclose(value, 100.0 * 16.0 / 30.0, abs_tol=1e-9)


def test_auc_equals_mean_of_constituents():
    rng = np.random.default_rng(23)
    gt_pose = spread_pose((0.0, 0.0, 3.0))
    pred_joints = gt_pose.joints.copy()
    pred_joints[:, :3] += rng.normal(0, 0.06, size=(15, 3))
    pred = Pose3D(joints=pred_joints, root_index=gt_pose.root_index,
                  skeleton_id=gt_pose.skeleton_id)
    pairs = [(gt_pose, pred)]
    manual = np.mean([pck3d_rel(pairs, tau=t).pck_rel for t in AUC_THRESHOLDS])
    assert auc_rel(pairs) == manual


def test_pck_skeleton_mismatch_rejected():
    from pose3dtrack.ingest import Skeleton, register_skeleton
    register_skeleton(Skeleton(name="tiny3", joint_names=("a", "b", "c"), root_index=0))
    tiny = Pose3D(joints=np.zeros((3, 4)) + [0, 0, 1, 1], root_index=0, skeleton_id="tiny3")
    full = spread_pose((0.0, 0.0, 3.0))
    with pytest.raises(EvaluationError, match="skeleton"):
        pck3d_rel([(full, tiny)], tau=0.15)


def test_matched_pairs_on_synthetic_scene():
    seq, gt = generate(builtin("parallel_walk"))
    tracks = run_sequence(seq, TrackerConfig())
    pairs = matched_pose_pairs(gt, tracks, radius=0.5)
    assert len(pairs) == gt.total
    report = pck3d_rel(pairs, tau=0.15)
    assert report.pck_rel > 99.0


def test_matched_pairs_observed_only_skips_predicted_states():
    from pose3dtrack.tracking import PREDICTED
    gt = GroundTruth(frames={0: [(0, make_pose(0.0, 0.0, 3.0))],
                             1: [(0, make_pose(0.1, 0.0, 3.0))]})
    track = fragment(5, [(0, (0.0, 0.0, 3.0)), (1, (0.1, 0.0, 3.0))])
    track.states[1] = dataclasses.replace(track.states[1], kind=PREDICTED)
    assert len(matched_pose_pairs(gt, [track])) == 2
    [(gt_pose, pred)] = matched_pose_pairs(gt, [track], observed_only=True)
    assert gt_pose is gt.frames[0][0][1] and pred is track.states[0].pose3d


def test_matched_pairs_do_not_depend_on_track_list_order():
    # Two predictions at exactly the same root distance: the lower track id wins.
    gt = GroundTruth(frames={0: [(0, make_pose(0.0, 0.0, 3.0))]})
    low, high = fragment(1, [(0, (0.2, 0.0, 3.0))]), fragment(2, [(0, (-0.2, 0.0, 3.0))])
    for tracks in ([low, high], [high, low]):
        [(_, pred)] = matched_pose_pairs(gt, tracks)
        assert pred is low.states[0].pose3d


def test_ground_truth_round_trip_through_track_records(tmp_path):
    from pose3dtrack.tracking import read_tracks, write_tracks
    sc = builtin("parallel_walk")
    seq, gt = generate(sc)
    path = tmp_path / "gt.jsonl"
    write_tracks(path, ground_truth_tracks(sc, gt), skeleton_id=BASIC15.name,
                 fps=sc.fps, kind="ground_truth")
    header, records = read_tracks(path)
    assert header["kind"] == "ground_truth"
    restored = ground_truth_from_tracks(records)
    assert restored.total == gt.total
    for f in gt.frame_indices:
        for (ga, pa), (gb, pb) in zip(sorted(gt.frames[f]), sorted(restored.frames[f])):
            assert ga == gb
            np.testing.assert_array_equal(pa.joints, pb.joints)
