"""Tracker invariants as properties over random sequences.

People walk on seeded straight lines, drop out of random frames, and are
sometimes joined by a clone detection at the same spot (an exact IOU tie).
Whatever the configuration, after ``finalize``:

* each detection is used at most once, and each track at most once per
  frame, so no frame holds two states of one track or one detection twice;
* a detection at or above ``min_track_score`` is used exactly once;
* no track starts or ends on a prediction, and no gap outlasts ``max_gap``;
* track ids are dense (0..n-1) and monotone in birth order, and tracks born
  in one frame take ids in descending score order.

Separately, the tracks do not depend on the order of a frame's detections
when scores are distinct and coordinates continuous (so no IOU ties).
Those sequences come from seeded NumPy: Hypothesis shrinking would hunt for
the exact ties that the property excludes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pose3dtrack.geometry import Box3D
from pose3dtrack.ingest import BASIC15, Box2D, Detection, Keypoints2D, Mask2D, TrackerConfig
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.tracking import OBSERVED, PREDICTED, Tracker

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
WIDTH, HEIGHT = 640, 480
MASK = Mask2D(width=WIDTH, height=HEIGHT, runs=((0, WIDTH * HEIGHT),))
KEYPOINTS = Keypoints2D(joints=np.tile([1.0, 1.0, 1.0], (BASIC15.joint_count, 1)))


def _item(frame, x, z, score, half=(0.4, 0.9, 0.3)):
    det = Detection(frame_index=frame,
                    box=Box2D(320.0 + 10.0 * x - 4.0, 100.0, 320.0 + 10.0 * x + 4.0, 300.0),
                    mask=MASK, keypoints=KEYPOINTS, score=score)
    hx, hy, hz = half
    box = Box3D(x - hx, x + hx, -hy, hy, z - hz, z + hz)
    joints = np.tile([x, 0.0, z, 1.0], (BASIC15.joint_count, 1))
    pose = Pose3D(joints=joints, root_index=BASIC15.root_index, skeleton_id=BASIC15.name)
    return det, box, pose


@st.composite
def scenes(draw):
    """(tracker config, frame indices, per-frame items)."""
    cfg = TrackerConfig(
        iou_gate=draw(st.sampled_from([0.0, 0.1, 0.3, 0.6])),
        max_gap=draw(st.integers(0, 3)),
        predictor_window=draw(st.integers(1, 3)),
        association_mode=draw(st.sampled_from(["iou3d", "iou2d"])),
        min_track_score=draw(st.sampled_from([0.0, 0.5])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    people, n_frames = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    start = rng.uniform(-4.0, 4.0, people)
    speed = rng.uniform(-0.3, 0.3, people) * draw(st.sampled_from([0.0, 1.0, 3.0]))
    depth = rng.uniform(3.0, 6.0, people)
    present = rng.random((n_frames, people)) < draw(st.sampled_from([0.5, 0.8, 1.0]))
    clone_rate = draw(st.sampled_from([0.0, 0.2]))
    # Frame indices may skip, as a depth directory with missing frames does.
    frames = np.cumsum(rng.integers(1, 3, n_frames)).tolist()
    items = []
    for f, frame in enumerate(frames):
        row = []
        for p in np.flatnonzero(present[f]).tolist():
            x = float(start[p] + speed[p] * frame + rng.normal(0.0, 0.02))
            score = float(rng.choice([0.3, 0.5, 0.9, 1.0]))
            row.append(_item(frame, x, float(depth[p]), score))
            if rng.random() < clone_rate:
                row.append(_item(frame, x, float(depth[p]), score))
        rng.shuffle(row)
        items.append(row)
    return cfg, frames, items


@SETTINGS
@given(scene=scenes())
def test_tracker_invariants_hold_on_random_sequences(scene):
    cfg, frames, items = scene
    tracker = Tracker(cfg)
    for frame, row in zip(frames, items):
        tracker.step(frame, row)
    tracks = tracker.finalize()

    # Each detection at most once; each track at most once per frame.
    used = [id(s.detection) for t in tracks for s in t.states if s.kind == OBSERVED]
    assert len(used) == len(set(used))
    for track in tracks:
        track_frames = [s.frame_index for s in track.states]
        assert track_frames == sorted(set(track_frames))
        assert set(track_frames) <= set(frames)
        assert all((s.kind == OBSERVED) == (s.detection is not None) for s in track.states)
        for s in track.states:
            if s.kind == OBSERVED:
                assert s.detection.frame_index == s.frame_index
    # Detections that may start a track are never dropped.
    eligible = {id(det) for row in items for det, _, _ in row
                if det.score >= cfg.min_track_score}
    assert eligible <= set(used)

    # No track starts or ends on a prediction; gaps stay within max_gap.
    for track in tracks:
        kinds = [s.kind for s in track.states]
        assert kinds[0] == OBSERVED and kinds[-1] == OBSERVED
        assert track.birth_frame == track.states[0].frame_index
        run = 0
        for kind in kinds:
            run = run + 1 if kind == PREDICTED else 0
            assert run <= cfg.max_gap

    # Ids dense and monotone in birth order; same-frame births by score.
    assert [t.track_id for t in tracks] == list(range(len(tracks)))
    births = [t.birth_frame for t in tracks]
    assert births == sorted(births)
    for a, b in zip(tracks, tracks[1:]):
        if a.birth_frame == b.birth_frame:
            assert a.states[0].detection.score >= b.states[0].detection.score


def _continuous_sequence(seed, mode):
    """(tracker config, frame indices, per-frame items) with continuous
    positions and box sizes, distinct scores, dropped detections, clutter
    and skipped frame indices."""
    rng = np.random.default_rng(seed)
    cfg = TrackerConfig(
        # Positive gates; a gate of 0 still requires overlap (IOU > 0), which
        # test_tracking.py::test_zero_gate_still_needs_overlap pins.
        iou_gate=float(rng.choice([0.1, 0.3, 0.5])),
        max_gap=int(rng.integers(0, 4)),
        predictor_window=int(rng.integers(1, 4)),
        association_mode=mode,
        min_track_score=float(rng.choice([0.0, 0.5])),
    )
    people, n_frames = int(rng.integers(2, 7)), int(rng.integers(4, 13))
    start = rng.uniform([-3.0, 5.0], [3.0, 10.0], (people, 2))  # x, z
    velocity = rng.normal(0.0, 0.15, (people, 2))
    half = rng.uniform(0.25, 0.5, (people, 3))
    frames = np.cumsum(rng.integers(1, 3, n_frames)).tolist()
    items = []
    for frame in frames:
        people_here = np.flatnonzero(rng.random(people) < 0.8).tolist()
        spots = [(start[p] + velocity[p] * frame + rng.normal(0.0, 0.03, 2), half[p])
                 for p in people_here]
        spots += [(rng.uniform([-3.0, 5.0], [3.0, 10.0]), rng.uniform(0.2, 0.5, 3))
                  for _ in range(int(rng.integers(0, 3)))]  # clutter
        scores = rng.uniform(0.0, 1.0, len(spots))  # distinct almost surely
        items.append([_item(frame, float(x), float(z), float(score), half=h.tolist())
                      for ((x, z), h), score in zip(spots, scores)])
    return cfg, frames, items


def _tracks_summary(cfg, frames, items):
    tracker = Tracker(cfg)
    for frame, row in zip(frames, items):
        tracker.step(frame, row)
    return [(t.track_id, t.birth_frame,
             [(s.frame_index, s.kind, s.box3d, id(s.detection)) for s in t.states])
            for t in tracker.finalize()]


@pytest.mark.parametrize("mode", ["iou3d", "iou2d"])
def test_tracks_do_not_depend_on_detection_order(mode):
    for seed in range(150):
        cfg, frames, items = _continuous_sequence(seed, mode)
        expected = _tracks_summary(cfg, frames, items)
        shuffle = np.random.default_rng(10_000 + seed)
        for _ in range(2):
            shuffled = [[row[i] for i in shuffle.permutation(len(row))] for row in items]
            assert _tracks_summary(cfg, frames, shuffled) == expected, seed
