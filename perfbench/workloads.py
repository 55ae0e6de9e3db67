"""Seeded input generators for the three benchmark workloads.

The seed only draws noise, jitter and occlusion gaps; scene layout is fixed,
so every seed asks the engine for about the same amount of work.  Tune with
``TUNING_SEED`` and re-check any claimed gain on ``HELD_OUT_SEED``, which was
never used while the benchmark or a change was being tuned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pose3dtrack.geometry import Box3D
from pose3dtrack.ingest import (
    BASIC15,
    Box2D,
    CameraModel,
    Detection,
    Keypoints2D,
    Mask2D,
    TrackerConfig,
)
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.synth import CANONICAL_OFFSETS, PersonSpec, Scenario
from pose3dtrack.tracking import OBSERVED, Track, TrackState

TUNING_SEED = 1
HELD_OUT_SEED = 7919

FPS = 20.0
EXTENT = (0.5, 1.6, 0.3)
DEPTH_NOISE = 0.02  # meters
KEYPOINT_NOISE = 1.0  # pixels


def _walk(u0: float, u1: float, z: float, y: float, frames: int,
          cam: CameraModel) -> tuple[tuple[int, tuple[float, float, float]], ...]:
    """Constant-velocity root path whose projection moves from u0 to u1."""
    x0 = (u0 - cam.cx) * z / cam.fx
    x1 = (u1 - cam.cx) * z / cam.fx
    return ((0, (x0, y, z)), (frames - 1, (x1, y, z)))


def crowd(seed: int, frames: int = 100, people: int = 10) -> Scenario:
    """People crossing each other at 3.0-8.4 m in a 640x480 frame."""
    cam = CameraModel(fx=600.0, fy=600.0, cx=320.0, cy=240.0)
    persons = tuple(
        PersonSpec(_walk(60 + 50 * p, 580 - 50 * p, 3.0 + 0.6 * p, 0.1 * p - 0.5,
                         frames, cam), EXTENT)
        for p in range(people)
    )
    return Scenario(name="crowd", persons=persons, frames=frames, fps=FPS,
                    camera=cam, width=640, height=480, depth_noise=DEPTH_NOISE,
                    keypoint_noise=KEYPOINT_NOISE, seed=seed)


def wide_sparse(seed: int, frames: int = 100, people: int = 4) -> Scenario:
    """A few small, distant people in a 1280x720 frame."""
    cam = CameraModel(fx=600.0, fy=600.0, cx=640.0, cy=360.0)
    persons = tuple(
        PersonSpec(_walk(200 + 150 * p, 1080 - 150 * p, 6.0 + 1.5 * p, 0.1 * p - 0.3,
                         frames, cam), EXTENT)
        for p in range(people)
    )
    return Scenario(name="wide_sparse", persons=persons, frames=frames, fps=FPS,
                    camera=cam, width=1280, height=720, depth_noise=DEPTH_NOISE,
                    keypoint_noise=KEYPOINT_NOISE, seed=seed)


SCENES = {"crowd": crowd, "wide_sparse": wide_sparse}


# ---------------------------------------------------------------------------
# Pre-lifted replay
# ---------------------------------------------------------------------------

REPLAY_CAMERA = CameraModel(fx=300.0, fy=300.0, cx=640.0, cy=360.0)
REPLAY_SIZE = (1280, 720)
REPLAY_JITTER = 0.01  # meters, on box faces and joints
REPLAY_GAPS = (3, 14)  # inclusive range of occlusion gap lengths


@dataclass(frozen=True)
class Replay:
    """Pre-lifted tracker input with ground truth and the exact outcome.

    ``expected_tracks`` and ``expected_predicted`` follow from the gaps: a
    gap longer than ``tracker.max_gap`` ends the track and the person
    returns under a new id, while a shorter gap is bridged by one predicted
    state per missed frame.
    """

    frames: tuple[tuple[tuple[Detection, Box3D, Pose3D], ...], ...]
    ground_truth: tuple[Track, ...]
    tracker: TrackerConfig
    detections: int
    expected_tracks: int
    expected_predicted: int


def _replay_person(p: int, frames: int) -> PersonSpec:
    """Six lanes across, five rows deep; each row walks one way, so no two
    people ever overlap."""
    row, col = divmod(p, 6)
    x = -5.0 + 2.0 * col
    z = 4.0 + 1.5 * row
    drift = 0.004 * (frames - 1) * (1 if row % 2 else -1)
    return PersonSpec(((0, (x, 0.2 * row - 0.4, z)),
                       (frames - 1, (x + drift, 0.2 * row - 0.4, z))), EXTENT)


def _joints(spec: PersonSpec, frame: int) -> np.ndarray:
    root = spec.root_at(frame)
    w, h, _ = spec.extent
    joints = np.empty((CANONICAL_OFFSETS.shape[0], 3), dtype=np.float64)
    joints[:, 0] = root[0] + CANONICAL_OFFSETS[:, 0] * w
    joints[:, 1] = root[1] + CANONICAL_OFFSETS[:, 1] * h
    joints[:, 2] = root[2]
    return joints


def _pose(joints_xyz: np.ndarray) -> Pose3D:
    joints = np.concatenate([joints_xyz, np.ones((joints_xyz.shape[0], 1))], axis=1)
    return Pose3D(joints=joints, root_index=BASIC15.root_index, skeleton_id=BASIC15.name)


def _detection(frame: int, box: Box3D, joints_xyz: np.ndarray) -> Detection:
    """Image-side record the tracker keeps with each pre-lifted item."""
    cam = REPLAY_CAMERA
    width, height = REPLAY_SIZE
    us = cam.fx * np.array([box.x_min, box.x_max]) / box.z_min + cam.cx
    vs = cam.fy * np.array([box.y_min, box.y_max]) / box.z_min + cam.cy
    box2d = Box2D(float(us[0]), float(vs[0]), float(us[1]), float(vs[1]))
    row = int(round((vs[0] + vs[1]) / 2.0))
    c0, c1 = int(np.ceil(us[0])), int(np.floor(us[1]))
    mask = Mask2D(width=width, height=height, runs=((row * width + c0, c1 - c0 + 1),))
    kps = np.empty((joints_xyz.shape[0], 3), dtype=np.float64)
    kps[:, 0] = cam.fx * joints_xyz[:, 0] / joints_xyz[:, 2] + cam.cx
    kps[:, 1] = cam.fy * joints_xyz[:, 1] / joints_xyz[:, 2] + cam.cy
    kps[:, 2] = 1.0
    return Detection(frame_index=frame, box=box2d, mask=mask,
                     keypoints=Keypoints2D(joints=kps, skeleton_id=BASIC15.name),
                     score=1.0)


def replay(seed: int, frames: int = 150, people: int = 30) -> Replay:
    """Jittered pre-lifted people, each hidden for one seeded gap."""
    rng = np.random.default_rng(seed)
    tracker = TrackerConfig()
    specs = [_replay_person(p, frames) for p in range(people)]
    gaps = []
    for _ in range(people):
        length = int(rng.integers(REPLAY_GAPS[0], REPLAY_GAPS[1] + 1))
        start = int(rng.integers(5, frames - length - 5))
        gaps.append((start, start + length))

    ground_truth = []
    for p, spec in enumerate(specs):
        track = Track(track_id=p, birth_frame=0)
        for f in range(frames):
            track.states.append(TrackState(frame_index=f, kind=OBSERVED,
                                           box3d=spec.box_at(f),
                                           pose3d=_pose(_joints(spec, f))))
        ground_truth.append(track)

    replay_frames = []
    for f in range(frames):
        items = []
        for p, spec in enumerate(specs):
            start, stop = gaps[p]
            if start <= f < stop:
                continue
            box = Box3D.from_array(spec.box_at(f).as_array()
                                   + rng.normal(0.0, REPLAY_JITTER, 6))
            joints = _joints(spec, f) + rng.normal(0.0, REPLAY_JITTER, (len(CANONICAL_OFFSETS), 3))
            items.append((_detection(f, box, joints), box, _pose(joints)))
        replay_frames.append(tuple(items))

    lengths = [stop - start for start, stop in gaps]
    return Replay(
        frames=tuple(replay_frames),
        ground_truth=tuple(ground_truth),
        tracker=tracker,
        detections=sum(len(items) for items in replay_frames),
        expected_tracks=people + sum(1 for n in lengths if n > tracker.max_gap),
        expected_predicted=sum(n for n in lengths if n <= tracker.max_gap),
    )
