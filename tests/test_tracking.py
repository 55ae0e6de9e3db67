import gc
import math
import re
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import best_assignment_total
from pose3dtrack import ingest, tracking
from pose3dtrack.cli import main as cli_main
from pose3dtrack.errors import EmptySupportError, ParseError, SequencingError, ValidationError
from pose3dtrack.geometry import Box3D, iou3d
from pose3dtrack.ingest import (
    BASIC15,
    Box2D,
    CameraModel,
    DepthMap,
    Detection,
    FrameInput,
    Keypoints2D,
    Mask2D,
    SequenceInput,
    TrackerConfig,
    load_config,
    load_sequence,
)
from pose3dtrack.pose3d import Pose3D, lift_pose
from pose3dtrack.synth import builtin, generate
from pose3dtrack.tracking import (
    OBSERVED,
    PREDICTED,
    Track,
    Tracker,
    TrackState,
    assign_by_iou,
    associate,
    predict,
    read_tracks,
    run_sequence,
    write_tracks,
)


def make_pose(x, y, z, conf=1.0):
    joints = np.tile([x, y, z, conf], (15, 1)).astype(np.float64)
    return Pose3D(joints=joints, root_index=BASIC15.root_index, skeleton_id=BASIC15.name)


def make_box(x, y, z, half=0.4):
    return Box3D(x - half, x + half, y - half, y + half, z - half, z + half)


def make_detection(score=1.0, box=(0.0, 0.0, 3.0, 3.0)):
    return Detection(
        frame_index=0,
        box=Box2D(*box),
        mask=Mask2D(width=4, height=4, runs=((0, 16),)),
        keypoints=Keypoints2D(joints=np.tile([1.0, 1.0, 1.0], (15, 1))),
        score=score,
    )


def make_item(x, y, z, score=1.0, box2d=(0.0, 0.0, 3.0, 3.0)):
    return (make_detection(score=score, box=box2d), make_box(x, y, z), make_pose(x, y, z))


def make_track(track_id, positions, start_frame=0, kinds=None):
    track = Track(track_id=track_id, birth_frame=start_frame)
    for i, pos in enumerate(positions):
        kind = kinds[i] if kinds else OBSERVED
        track.states.append(TrackState(
            frame_index=start_frame + i, kind=kind,
            box3d=make_box(*pos), pose3d=make_pose(*pos),
            box2d=Box2D(0.0, 0.0, 3.0, 3.0),
        ))
    return track


# ---------------------------------------------------------------------------
# Assignment
# ---------------------------------------------------------------------------

def test_poses_and_states_compare_and_hash_by_value():
    pose, box = make_pose(1.0, 0.0, 3.0), make_box(1.0, 0.0, 3.0)
    state = TrackState(0, OBSERVED, box, pose)
    same = TrackState(0, OBSERVED, make_box(1.0, 0.0, 3.0), make_pose(1.0, 0.0, 3.0))
    assert pose == same.pose3d and hash(pose) == hash(same.pose3d)
    assert state == same and hash(state) == hash(same)
    assert pose != make_pose(1.0, 0.0, 3.5)
    assert state != TrackState(0, PREDICTED, box, pose)
    assert state != TrackState(0, OBSERVED, box, make_pose(1.0, 0.0, 3.0, conf=0.5))


def test_assign_pinned_two_by_two():
    iou = np.array([[0.8, 0.1], [0.2, 0.7]])
    pairs, un_r, un_c = assign_by_iou(iou, gate=0.3)
    assert pairs == [(0, 0), (1, 1)]
    assert un_r == [] and un_c == []
    # brute force confirms the totals: 1.5 for the diagonal vs 0.3 swapped
    assert math.isclose(best_assignment_total(iou, 0.3), 1.5)


def test_assign_below_gate_unmatched():
    pairs, un_r, un_c = assign_by_iou(np.array([[0.05]]), gate=0.3)
    assert pairs == []
    assert un_r == [0] and un_c == [0]


def test_assign_empty_sides():
    pairs, un_r, un_c = assign_by_iou(np.zeros((0, 1)), gate=0.3)
    assert pairs == [] and un_r == [] and un_c == [0]


def test_assign_prefers_low_indices_on_ties():
    iou = np.array([[0.5, 0.5], [0.5, 0.5]])
    pairs, _, _ = assign_by_iou(iou, gate=0.3)
    assert pairs == [(0, 0), (1, 1)]


def test_assign_optimality_matches_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n, m = rng.integers(1, 6, size=2)
        iou = rng.random((n, m))
        for gate in (0.0, 0.3, 0.6):
            pairs, _, _ = assign_by_iou(iou, gate)
            total = sum(iou[r, c] for r, c in pairs)
            assert math.isclose(total, best_assignment_total(iou, gate), abs_tol=1e-9)
            assert all(iou[r, c] >= gate for r, c in pairs)


def test_zero_gate_still_needs_overlap():
    tracker = Tracker(TrackerConfig(iou_gate=0.0))
    tracker.step(0, [make_item(0.0, 0.0, 5.0), make_item(50.0, 0.0, 5.0)])
    tracker.step(1, [make_item(100.0, 0.0, 5.0), make_item(-100.0, 0.0, 5.0)])
    tracks = tracker.finalize()
    # Neither far detection overlaps a track, so both spawn new tracks.
    assert [(t.birth_frame, len(t.states)) for t in tracks] == [(0, 1), (0, 1), (1, 1), (1, 1)]


def test_associate_with_boxes_and_gate_soundness():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n, m = rng.integers(0, 6, size=2)
        tracks = [make_box(*rng.uniform(0, 2, size=3), half=rng.uniform(0.3, 1.0))
                  for _ in range(n)]
        dets = [make_box(*rng.uniform(0, 2, size=3), half=rng.uniform(0.3, 1.0))
                for _ in range(m)]
        pairs, unmatched_tracks, unmatched_dets = associate(tracks, dets, gate=0.3, mode="iou3d")
        seen_t, seen_d = set(), set()
        for t, d in pairs:
            assert iou3d(tracks[t], dets[d]) >= 0.3
            assert t not in seen_t and d not in seen_d
            seen_t.add(t)
            seen_d.add(d)
        assert set(unmatched_tracks) == set(range(n)) - seen_t
        assert set(unmatched_dets) == set(range(m)) - seen_d


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def test_predict_exact_linear_extrapolation():
    track = make_track(0, [(0.0, 0.0, 5.0), (0.1, 0.0, 5.0), (0.2, 0.0, 5.0)])
    box, pose, box2d = predict(track, window=5, target_frame=track.last_state.frame_index + 1)
    np.testing.assert_allclose(pose.root, (0.3, 0.0, 5.0), atol=1e-12)
    assert math.isclose(box.x_min, 0.3 - 0.4, abs_tol=1e-12)


def test_predict_single_state_zero_velocity():
    track = make_track(3, [(1.0, 2.0, 3.0)])
    box, pose, _ = predict(track, window=5, target_frame=track.last_state.frame_index + 1)
    np.testing.assert_array_equal(pose.root, (1.0, 2.0, 3.0))
    assert box.x_min == make_box(1.0, 2.0, 3.0).x_min


def test_predict_least_squares_slope():
    xs = [0.0, 1.0, 1.9, 3.1]
    track = make_track(0, [(x, 0.0, 0.0 + 1.0) for x in xs])  # z=1 keeps boxes valid
    box, pose, _ = predict(track, window=4, target_frame=track.last_state.frame_index + 1)
    # independent fit
    coeffs = np.polyfit(np.arange(4.0), np.array(xs), deg=1)
    expected = np.polyval(coeffs, 4.0)
    assert math.isclose(pose.root[0], expected, abs_tol=1e-9)
    assert math.isclose(expected, 4.05, abs_tol=1e-9)
    assert abs(pose.root[0] - 4.0) <= 0.1


def test_predict_ignores_predicted_states():
    positions = [(0.0, 0.0, 4.0), (1.0, 0.0, 4.0), (99.0, 0.0, 4.0)]
    kinds = [OBSERVED, OBSERVED, PREDICTED]
    track = make_track(0, positions, kinds=kinds)
    box, pose, _ = predict(track, window=5, target_frame=track.last_state.frame_index + 1)
    # fit uses frames 0,1 only; extrapolated to frame 3 -> x = 3
    assert math.isclose(pose.root[0], 3.0, abs_tol=1e-12)


def test_predict_uses_window_of_recent_observations():
    xs = [100.0, 0.0, 1.0, 2.0, 3.0]
    track = make_track(0, [(x, 0.0, 5.0) for x in xs])
    # the window drops the outlier at frame 0
    _, pose, _ = predict(track, window=4, target_frame=track.last_state.frame_index + 1)
    assert math.isclose(pose.root[0], 4.0, abs_tol=1e-12)


def test_predicted_state_extrapolates_to_stepped_frame():
    # frame indices may skip: the prediction must land on the stepped frame
    tracker = Tracker(TrackerConfig())
    tracker.step(0, [make_item(0.0, 0.0, 4.0)])
    tracker.step(1, [make_item(0.1, 0.0, 4.0)])
    tracker.step(5, [])
    assert len(tracker.live) == 1
    state = tracker.live[0].last_state
    assert state.frame_index == 5
    assert math.isclose(state.pose3d.root[0], 0.5, abs_tol=1e-12)


def test_prediction_of_a_narrowing_box_keeps_the_last_observed_box():
    # x extents [0, 1], [0.2, 0.8], [0.3, 0.7] fit to [0.47, 0.53] at frame 3
    # and to the inverted [0.62, 0.38] at frame 4.
    tracker = Tracker(TrackerConfig())
    for frame, (x0, x1) in enumerate([(0.0, 1.0), (0.2, 0.8), (0.3, 0.7)]):
        det, _, pose = make_item(0.5, 0.5, 3.0)
        tracker.step(frame, [(det, Box3D(x0, x1, 0.0, 1.0, 2.5, 3.5), pose)])
    tracker.step(3, [])
    tracker.step(4, [])
    track, = tracker.live
    first, second = track.states[3:]
    assert first.kind == second.kind == PREDICTED
    assert math.isclose(first.box3d.x_min, 0.3 + 0.5 / 3, abs_tol=1e-12)
    assert math.isclose(first.box3d.x_max, 0.7 - 0.5 / 3, abs_tol=1e-12)
    assert second.box3d == track.states[2].box3d


@st.composite
def gapped_windows(draw):
    """Five observed frames from 0-39 that are not consecutive, each with a
    random box, pose and 2D box, and a target frame past the last."""
    frames = draw(st.sets(st.integers(0, 39), min_size=5, max_size=5)
                  .map(sorted).filter(lambda f: f[-1] - f[0] > 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.uniform(-2.0, 2.0, (5, 3)) + (0.0, 0.0, 6.0)
    halves = rng.uniform(0.1, 0.8, (5, 3))
    joints = rng.uniform(-3.0, 3.0, (5, 15, 4))
    corners = rng.uniform(0.0, 300.0, (5, 2))
    states = [(frame, Box3D(*np.ravel(np.stack([c - h, c + h], axis=1)).tolist()),
               Pose3D(joints=j, root_index=BASIC15.root_index, skeleton_id=BASIC15.name),
               Box2D(x, y, x + 40.0, y + 90.0))
              for frame, c, h, j, (x, y) in zip(frames, centres, halves, joints, corners)]
    return states, frames[-1] + draw(st.integers(1, 6))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(window=gapped_windows(), shift=st.sampled_from([1000, 12347]))
def test_predict_is_invariant_to_a_frame_shift(window, shift):
    states, target = window

    def predicted(offset):
        track = Track(track_id=0, birth_frame=states[0][0] + offset)
        track.states = [TrackState(frame + offset, OBSERVED, box, pose, box2d=box2d)
                        for frame, box, pose, box2d in states]
        return predict(track, window=5, target_frame=target + offset)

    (box, pose, box2d), (shifted_box, shifted_pose, shifted_box2d) = predicted(0), predicted(shift)
    assert shifted_box == box
    assert (shifted_pose.joints == pose.joints).all()
    assert shifted_box2d == box2d


@pytest.mark.parametrize("name, mode, shift", [
    ("three_person_mix", "iou3d", 1000),
    ("three_person_mix", "iou2d", 12347),
    ("full_occlusion", "iou3d", 12347),
    ("full_occlusion", "iou2d", 1000),
])
def test_tracks_are_invariant_to_a_frame_shift(name, mode, shift):
    """Adding c to every frame index of a sequence adds c to every state's
    frame and every birth, and changes nothing else in the tracks."""
    seq, _ = generate(builtin(name, seed=7, depth_noise=0.5, keypoint_noise=0.5))
    shifted = SequenceInput(frames=tuple(
        replace(frame, frame_index=frame.frame_index + shift,
                detections=tuple(replace(det, frame_index=det.frame_index + shift)
                                 for det in frame.detections))
        for frame in seq.frames), camera=seq.camera)
    cfg = TrackerConfig(association_mode=mode)

    def without_detections(tracks, offset):
        return [replace(track, birth_frame=track.birth_frame + offset,
                        states=[replace(s, frame_index=s.frame_index + offset, detection=None)
                                for s in track.states])
                for track in tracks]

    tracks = run_sequence(seq, cfg)
    assert any(s.kind == PREDICTED for track in tracks for s in track.states)
    assert without_detections(run_sequence(shifted, cfg), 0) == without_detections(tracks, shift)


# ---------------------------------------------------------------------------
# Tracker stepping
# ---------------------------------------------------------------------------

def test_step_extends_matched_track():
    tracker = Tracker(TrackerConfig())
    tracker.step(0, [make_item(0.0, 0.0, 4.0)])
    tracker.step(1, [make_item(0.05, 0.0, 4.0)])
    assert len(tracker.live) == 1
    track = tracker.live[0]
    assert len(track.states) == 2
    assert all(s.kind == OBSERVED for s in track.states)


def test_step_occlusion_entry_appends_predicted():
    tracker = Tracker(TrackerConfig())
    tracker.step(0, [make_item(0.0, 0.0, 4.0)])
    tracker.step(1, [])
    track = tracker.live[0]
    assert track.states[-1].kind == PREDICTED
    assert track.gap_run == 1


def test_step_cold_start_spawns_in_score_order():
    tracker = Tracker(TrackerConfig())
    tracker.step(0, [make_item(0.0, 0.0, 4.0, score=0.5),
                     make_item(5.0, 0.0, 4.0, score=0.9)])
    tracks = sorted(tracker.live, key=lambda t: t.track_id)
    assert tracks[0].states[0].detection.score == 0.9
    assert tracks[1].states[0].detection.score == 0.5


def test_step_min_track_score_filters_spawn():
    tracker = Tracker(TrackerConfig(min_track_score=0.6))
    tracker.step(0, [make_item(0.0, 0.0, 4.0, score=0.5)])
    assert tracker.live == []


def test_step_out_of_order_frame_rejected():
    tracker = Tracker(TrackerConfig())
    tracker.step(3, [])
    with pytest.raises(SequencingError):
        tracker.step(3, [])


def test_max_gap_termination_discards_trailing_predictions():
    tracker = Tracker(TrackerConfig(max_gap=3))
    tracker.step(0, [make_item(0.0, 0.0, 4.0)])
    for f in range(1, 6):
        tracker.step(f, [])
    tracks = tracker.finalize()
    assert len(tracks) == 1
    assert len(tracks[0].states) == 1
    assert tracks[0].states[0].kind == OBSERVED
    assert tracks[0].terminated


def test_terminated_track_never_reactivates():
    tracker = Tracker(TrackerConfig(max_gap=1))
    tracker.step(0, [make_item(0.0, 0.0, 4.0)])
    tracker.step(1, [])
    tracker.step(2, [])  # exceeds max_gap -> terminated
    tracker.step(3, [make_item(0.0, 0.0, 4.0)])
    tracks = tracker.finalize()
    assert len(tracks) == 2
    assert tracks[0].terminated
    assert tracks[1].birth_frame == 3


def test_gap_bridged_predictions_are_kept():
    tracker = Tracker(TrackerConfig(max_gap=5))
    tracker.step(0, [make_item(0.0, 0.0, 4.0)])
    tracker.step(1, [])
    tracker.step(2, [])
    tracker.step(3, [make_item(0.0, 0.0, 4.0)])
    tracks = tracker.finalize()
    kinds = [s.kind for s in tracks[0].states]
    assert kinds == [OBSERVED, PREDICTED, PREDICTED, OBSERVED]


# ---------------------------------------------------------------------------
# run_sequence on synthetic scenes
# ---------------------------------------------------------------------------

def test_run_sequence_two_person_non_crossing():
    seq, _ = generate(builtin("parallel_walk"))
    tracks = run_sequence(seq, TrackerConfig())
    assert len(tracks) == 2
    assert all(s.kind == OBSERVED for t in tracks for s in t.states)
    assert all(len(t.states) == len(seq.frames) for t in tracks)


def test_run_sequence_gap_produces_predicted_run():
    seq, _ = generate(builtin("full_occlusion", gap=5))
    tracks = run_sequence(seq, TrackerConfig())
    assert len(tracks) == 1
    predicted = [s for s in tracks[0].states if s.kind == PREDICTED]
    assert len(predicted) == 5
    assert [s.frame_index for s in predicted] == [12, 13, 14, 15, 16]


def test_run_sequence_empty():
    seq = SequenceInput(frames=(), camera=CameraModel(fx=1, fy=1, cx=0, cy=0))
    assert run_sequence(seq, TrackerConfig()) == []


ROOT_MESSAGE = "frame 0: root joint has zero confidence; cannot place pose"
SPAN_MESSAGE = "frame 0: no valid depth pixel inside mask ∩ box"


def test_run_sequence_reports_the_first_unliftable_detection_in_input_order():
    # An 8x4 raster with depth on its left half only.  Each detection's
    # span is measured before its root is tested, detection by detection.
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
        seq = SequenceInput(frames=(FrameInput(0, dets, depth),), camera=cam)
        with pytest.raises(EmptySupportError) as info:
            run_sequence(seq, TrackerConfig())
        return str(info.value)

    rootless, no_depth = detection(True, 0.0), detection(False, 1.0)
    assert error(rootless, no_depth) == ROOT_MESSAGE
    assert error(no_depth, rootless) == SPAN_MESSAGE
    both = detection(False, 0.0)
    assert error(both, rootless) == SPAN_MESSAGE
    with pytest.raises(EmptySupportError, match="^no valid depth pixel"):
        lift_pose(both, depth, cam)  # standalone, the span is measured first too


def test_no_track_ends_predicted_after_finalization():
    for name in ("parallel_walk", "full_occlusion", "three_person_mix", "depth_cross"):
        seq, _ = generate(builtin(name))
        for tracks in (run_sequence(seq, TrackerConfig()),
                       run_sequence(seq, TrackerConfig(max_gap=2))):
            for t in tracks:
                assert t.states[-1].kind == OBSERVED


def test_one_to_one_consumption_per_frame():
    seq, _ = generate(builtin("three_person_mix"))
    tracks = run_sequence(seq, TrackerConfig())
    seen: dict[int, set[int]] = {}
    for t in tracks:
        for s in t.states:
            if s.kind != OBSERVED:
                continue
            ids = seen.setdefault(s.frame_index, set())
            key = id(s.detection)
            assert key not in ids
            ids.add(key)


def test_run_sequence_deterministic():
    seq, _ = generate(builtin("three_person_mix"))
    a = run_sequence(seq, TrackerConfig())
    b = run_sequence(seq, TrackerConfig())
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert ta.track_id == tb.track_id
        assert len(ta.states) == len(tb.states)
        for sa, sb in zip(ta.states, tb.states):
            assert sa.kind == sb.kind
            np.testing.assert_array_equal(sa.box3d.as_array(), sb.box3d.as_array())
            np.testing.assert_array_equal(sa.pose3d.joints, sb.pose3d.joints)


# ---------------------------------------------------------------------------
# Tracks file IO
# ---------------------------------------------------------------------------

def test_run_sequence_frees_each_raster_before_the_tracker_step(tmp_path, monkeypatch):
    # The next frame's raster is loaded while this frame is lifted, so at
    # each step this frame's raster is freed and only the next one is alive.
    # Each step first waits for that next load, so the bound is checked with
    # both loads done.
    assert cli_main(["synth", "--scenario", "parallel_walk", "--out-dir", str(tmp_path)]) == 0
    cfg = load_config(tmp_path / "config.json")
    seq = load_sequence(tmp_path / "detections.jsonl", tmp_path / "depth", cfg.camera)
    loaded = []  # frame k's raster is loaded k-th: one worker, in frame order
    load_depth, step = ingest.load_depth, tracking.Tracker.step

    def remembering_load(path):
        depth = load_depth(path)
        loaded.append(weakref.ref(depth))
        return depth

    alive_at_step = []
    deadline = time.monotonic() + 10.0  # one for the whole run: without load-ahead it fails once

    def counting_step(self, frame_index, items):
        n = len(alive_at_step)
        while len(loaded) < min(n + 2, len(seq.frames)) and time.monotonic() < deadline:
            time.sleep(0.001)
        alive_at_step.append([k for k, ref in enumerate(loaded) if ref() is not None])
        return step(self, frame_index, items)

    monkeypatch.setattr(ingest, "load_depth", remembering_load)
    monkeypatch.setattr(tracking.Tracker, "step", counting_step)
    run_sequence(seq, cfg.tracker, cfg.lifting)
    frames = len(seq.frames)
    assert len(loaded) == frames > 1
    assert alive_at_step == [[n + 1] for n in range(frames - 1)] + [[]]
    assert all(ref() is None for ref in loaded)


def test_tracks_file_round_trip(tmp_path):
    seq, _ = generate(builtin("full_occlusion"))
    tracks = run_sequence(seq, TrackerConfig())
    path = tmp_path / "tracks.jsonl"
    write_tracks(path, tracks, skeleton_id=BASIC15.name, fps=20.0,
                 tracker_cfg=TrackerConfig())
    header, loaded = read_tracks(path)
    assert header["skeleton"] == BASIC15.name
    assert header["tracker"]["iou_gate"] == 0.3
    assert len(loaded) == len(tracks)
    for ta, tb in zip(tracks, loaded):
        assert ta.track_id == tb.track_id
        assert [s.kind for s in ta.states] == [s.kind for s in tb.states]
        for sa, sb in zip(ta.states, tb.states):
            np.testing.assert_array_equal(sa.pose3d.joints, sb.pose3d.joints)
            np.testing.assert_array_equal(sa.box3d.as_array(), sb.box3d.as_array())


def _small_tracks_file(path):
    tracks = [make_track(0, [(0.0, 0.0, 4.0), (0.1, 0.0, 4.0), (0.2, 0.0, 4.0)]),
              make_track(1, [(2.0, 0.0, 6.0), (2.0, 0.1, 6.0)], start_frame=1,
                         kinds=[OBSERVED, PREDICTED])]
    write_tracks(path, tracks, skeleton_id=BASIC15.name, fps=20.0)
    return path


BAD_TRACK_LINES = {
    "parse": ('{"id": "0", "birth": 0, "states": []}', ParseError),
    "validation": ('{"id": 0, "birth": 0, "states": [{"frame": 0, "kind": "obs", '
                   '"box3d": [1, 0, 0, 1, 0, 1], "pose3d": []}]}', ValidationError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize("fault", [None, *BAD_TRACK_LINES])
def test_read_tracks_leaves_the_collector_as_it_found_it(tmp_path, enabled, fault):
    path = _small_tracks_file(tmp_path / "tracks.jsonl")
    if fault:
        line, error = BAD_TRACK_LINES[fault]
        with open(path, "a") as f:
            f.write(line + "\n")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fault:
            with pytest.raises(error, match=re.escape(str(path))):
                read_tracks(path)
        else:
            assert len(read_tracks(path)[1]) == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_tracks_file_read_leaves_no_cyclic_garbage(tmp_path):
    # read_tracks pauses the collector on the premise that what it builds
    # holds no reference cycles: with the collector off, nothing is left
    # for it once the result is dropped.
    path = _small_tracks_file(tmp_path / "tracks.jsonl")
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        read_tracks(path)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
