"""Synthetic multi-person scenes with exact ground truth.

People are upright cuboids moving along piecewise-linear root paths; the
root sits at the center of the camera-facing face and all canonical joints
lie on that face, so depth sampling at a joint pixel recovers the joint
exactly.  Each frame is rendered into a depth raster by intersecting pixel
rays with the cuboids (nearest surface wins per pixel); mask ownership
follows the same z-buffer, the 2D box is the projected corner bound, and
keypoints are the projected joints.  Dropouts remove a person from both
rendering and detections while ground truth keeps listing them; noise is
seeded and applied only after ground truth is captured.

One worker thread makes every random draw, each frame's while the next
frame is rendered, in the serial order (a frame's keypoint draws, then its
depth draw); the main thread applies them, so the output does not depend
on the worker.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from inspect import signature
from itertools import product
from pathlib import Path

import numpy as np

from .errors import PoseTrackError, ScenarioError
from .geometry import Box3D
from .ingest import (
    BASIC15,
    Box2D,
    CameraModel,
    Detection,
    DepthMap,
    EngineConfig,
    FrameInput,
    Keypoints2D,
    SequenceInput,
    check_numbers,
    encode_mask,
    write_config,
    write_depth,
    write_detections,
)
from .jsonio import encode, read_json
from .metrics import GroundTruth
from .pose3d import Pose3D
from .tracking import OBSERVED, Track, TrackState, write_tracks

# Joint offsets on the camera-facing plane as fractions of (width, height),
# ordered like the default 15-joint skeleton; y grows downward.
CANONICAL_OFFSETS = np.array([
    (0.00, -0.42),   # head
    (0.00, -0.32),   # neck
    (-0.18, -0.30),  # r_shoulder
    (-0.24, -0.12),  # r_elbow
    (-0.28, 0.05),   # r_wrist
    (0.18, -0.30),   # l_shoulder
    (0.24, -0.12),   # l_elbow
    (0.28, 0.05),    # l_wrist
    (-0.12, 0.05),   # r_hip
    (-0.14, 0.25),   # r_knee
    (-0.15, 0.44),   # r_ankle
    (0.12, 0.05),    # l_hip
    (0.14, 0.25),    # l_knee
    (0.15, 0.44),    # l_ankle
    (0.00, 0.00),    # pelvis (root, face center)
], dtype=np.float64)

BUILTIN_NAMES = ("parallel_walk", "depth_cross", "full_occlusion", "three_person_mix")

# Largest frame a scenario may render, in pixels: its float64 depth buffer
# and noise draw are 128 MB each at this size.
MAX_PIXELS = 2**24
# Most depth values a scenario may render over all its frames, which are
# held in memory until written: 1 GiB of float32 rasters.
MAX_DEPTH_VALUES = 2**28


@dataclass(frozen=True)
class PersonSpec:
    """Piecewise-linear root path plus body extent (w, h, d) in meters."""

    waypoints: tuple[tuple[int, tuple[float, float, float]], ...]
    extent: tuple[float, float, float]

    def root_at(self, frame: int) -> np.ndarray:
        pts = self.waypoints
        if frame <= pts[0][0]:
            return np.array(pts[0][1], dtype=np.float64)
        for (f0, p0), (f1, p1) in zip(pts, pts[1:]):
            if frame <= f1:
                t = (frame - f0) / (f1 - f0)
                a = np.array(p0, dtype=np.float64)
                b = np.array(p1, dtype=np.float64)
                return a + t * (b - a)
        return np.array(pts[-1][1], dtype=np.float64)

    def box_at(self, frame: int) -> Box3D:
        x, y, z = self.root_at(frame)
        w, h, d = self.extent
        return Box3D(x - w / 2, x + w / 2, y - h / 2, y + h / 2,
                     z, z + max(d, 1e-6))


@dataclass(frozen=True)
class Scenario:
    name: str
    frames: int
    fps: float
    width: int
    height: int
    camera: CameraModel
    persons: tuple[PersonSpec, ...]
    dropouts: tuple[tuple[int, int, int], ...] = ()  # (person, start, stop)
    depth_noise: float = 0.0
    keypoint_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_numbers(self, to_float=True)
        if type(self.frames) is not int:
            raise ScenarioError(f"scenario frames must be an int, got {self.frames!r}")
        if self.frames <= 0:
            raise ScenarioError("scenario needs at least one frame")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ScenarioError("scenario fps must be finite and > 0")
        # type() rather than isinstance(): a bool is not a size.
        if not (type(self.width) is int and type(self.height) is int
                and self.width > 0 and self.height > 0):
            raise ScenarioError("scenario width and height must be ints > 0")
        if self.width * self.height > MAX_PIXELS:
            raise ScenarioError(f"scenario frame {self.width}x{self.height} is over "
                                f"the {MAX_PIXELS}-pixel budget")
        if self.frames * self.width * self.height > MAX_DEPTH_VALUES:
            raise ScenarioError(f"scenario of {self.frames} frames of {self.width}x{self.height} "
                                f"is over the {MAX_DEPTH_VALUES}-depth-value budget")
        if not all(math.isfinite(v) and v >= 0.0 for v in (self.depth_noise, self.keypoint_noise)):
            raise ScenarioError("scenario noise must be finite and >= 0")
        if not (type(self.seed) is int and self.seed >= 0):
            raise ScenarioError(f"scenario seed must be an int >= 0, got {self.seed!r}")
        for person, start, stop in self.dropouts:
            if {type(person), type(start), type(stop)} != {int}:
                raise ScenarioError(f"dropout values must be ints, got {(person, start, stop)!r}")
            if not (0 <= person < len(self.persons)):
                raise ScenarioError(f"dropout names unknown person {person}")
            if not (0 <= start < stop <= self.frames):
                raise ScenarioError(
                    f"dropout range [{start}, {stop}) outside [0, {self.frames})"
                )
        for p, spec in enumerate(self.persons):
            if not spec.waypoints:
                raise ScenarioError(f"person {p} has no waypoints")
            if any(len(pt) != 3 for _, pt in spec.waypoints):
                raise ScenarioError(f"person {p} has a waypoint without 3 coordinates")
            if not np.all(np.isfinite([c for _, pt in spec.waypoints for c in pt])):
                raise ScenarioError(f"person {p} has a non-finite waypoint")
            frames = [f for f, _ in spec.waypoints]
            for f in frames:
                if type(f) is not int:
                    raise ScenarioError(f"person {p} waypoint frame must be an int, got {f!r}")
            if any(b < a for a, b in zip(frames, frames[1:])):
                raise ScenarioError(f"person {p} has waypoint frames that decrease")
            if not (len(spec.extent) == 3 and all(map(math.isfinite, spec.extent))
                    and spec.extent[0] > 0 and spec.extent[1] > 0 and spec.extent[2] >= 0):
                raise ScenarioError(f"person {p} extent must be 3 finite values, "
                                    "w and h > 0, d >= 0")

    def dropped(self, person: int, frame: int) -> bool:
        return any(p == person and start <= frame < stop
                   for p, start, stop in self.dropouts)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_person(
    depth: np.ndarray,
    owner: np.ndarray,
    pid: int,
    box: Box3D,
    corners_u: np.ndarray,
    corners_v: np.ndarray,
    cam: CameraModel,
) -> tuple[int, int, int, int] | None:
    """Z-buffer the cuboid, its corners projected to (corners_u, corners_v),
    into (depth, owner) by ray entry; return the inclusive pixel block
    (r0, r1, c0, c1) it was drawn in, or None when it is outside the frame."""
    height, width = depth.shape
    # Clamped while float, one past the frame at most, so a corner projected
    # to +-inf cannot reach int().
    c0 = int(min(max(np.ceil(corners_u.min()), 0.0), width))
    c1 = int(min(max(np.floor(corners_u.max()), -1.0), width - 1))
    r0 = int(min(max(np.ceil(corners_v.min()), 0.0), height))
    r1 = int(min(max(np.floor(corners_v.max()), -1.0), height - 1))
    if c0 > c1 or r0 > r1:
        return None
    dx = (np.arange(c0, c1 + 1, dtype=np.float64) - cam.cx) / cam.fx
    dy = (np.arange(r0, r1 + 1, dtype=np.float64) - cam.cy) / cam.fy

    def slabs(d, lo, hi):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t_lo = np.where(d > 0, lo / d, np.where(d < 0, hi / d, -np.inf))
            t_hi = np.where(d > 0, hi / d, np.where(d < 0, lo / d, np.inf))
        on_axis_miss = (d == 0) & ~((lo <= 0.0) & (0.0 <= hi))
        t_lo = np.where(on_axis_miss, np.inf, t_lo)
        t_hi = np.where(on_axis_miss, -np.inf, t_hi)
        return t_lo, t_hi

    tx_lo, tx_hi = slabs(dx, box.x_min, box.x_max)
    ty_lo, ty_hi = slabs(dy, box.y_min, box.y_max)
    entry = np.maximum(np.maximum(tx_lo[None, :], ty_lo[:, None]), box.z_min)
    exit_ = np.minimum(np.minimum(tx_hi[None, :], ty_hi[:, None]), box.z_max)
    hit = (entry <= exit_) & (exit_ > 0.0)

    block_d = depth[r0:r1 + 1, c0:c1 + 1]
    block_o = owner[r0:r1 + 1, c0:c1 + 1]
    better = hit & ((block_o < 0) | (entry < block_d))
    block_d[better] = entry[better]
    block_o[better] = pid
    return r0, r1, c0, c1


def _project(cam: CameraModel, x, y, z) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole pixel coordinates (u, v) of camera-frame points; +-inf past
    the float range."""
    with np.errstate(over="ignore"):
        return cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy


def _project_corners(box: Box3D, cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    gx, gy, gz = np.array(list(product((box.x_min, box.x_max), (box.y_min, box.y_max),
                                       (box.z_min, box.z_max)))).T
    return _project(cam, gx, gy, gz)


def _person_joints(pid: int, spec: PersonSpec, frame: int) -> np.ndarray:
    """Person pid's (J, 4) joints at ``frame``, with confidence 1; all lie
    at the root's depth, which must be in front of the camera."""
    root = spec.root_at(frame)
    if root[2] <= 0.0:
        raise ScenarioError(f"person {pid} behind camera at frame {frame}")
    offsets = CANONICAL_OFFSETS * spec.extent[:2]
    count = offsets.shape[0]
    return np.column_stack([root[0] + offsets[:, 0], root[1] + offsets[:, 1],
                            np.full(count, root[2]), np.ones(count)])


def generate(sc: Scenario) -> tuple[SequenceInput, GroundTruth]:
    """Render a scenario into engine inputs plus exact 3D ground truth.

    Once frame f is rendered, one worker thread makes its random draws in
    the serial order (one keypoint draw per detection, then the depth
    draw) while frame f + 1 is rendered; the main thread then applies them
    and builds frame f.  The worker runs its tasks in submission order, so
    the stream is used frame by frame as a serial loop would use it.
    """
    rng = np.random.default_rng(sc.seed)
    cam = sc.camera
    frames: list[FrameInput] = []
    gt_frames: dict[int, list[tuple[int, Pose3D]]] = {}

    def draw(count: int) -> tuple[list[np.ndarray], np.ndarray | None]:
        """A frame's draws, on the worker: the only code that calls ``rng``."""
        keypoints = [rng.normal(0.0, sc.keypoint_noise, (CANONICAL_OFFSETS.shape[0], 2))
                     for _ in range(count if sc.keypoint_noise > 0.0 else 0)]
        return keypoints, (rng.normal(0.0, sc.depth_noise, (sc.height, sc.width))
                           if sc.depth_noise > 0.0 else None)

    def finish(frame: int, depth: np.ndarray, parts: list, draws) -> None:
        keypoint_draws, depth_draw = draws.result()
        if depth_draw is not None:
            valid = depth > 0.0
            depth[valid] = np.maximum(depth[valid] + depth_draw[valid], 1e-6)
        for (_, _, kps), noise in zip(parts, keypoint_draws):
            kps[:, :2] += noise
        with np.errstate(over="ignore"):  # past float32 is inf, which DepthMap rejects
            values = depth.astype(np.float32)
        frames.append(FrameInput(
            frame_index=frame,
            detections=tuple(
                Detection(frame_index=frame, box=box, mask=mask, score=1.0,
                          keypoints=Keypoints2D(joints=kps, skeleton_id=BASIC15.name))
                for box, mask, kps in parts),
            depth=DepthMap(width=sc.width, height=sc.height, values=values),
        ))

    with ThreadPoolExecutor(max_workers=1) as worker:  # leaving the block joins it
        pending = None  # the frame before: (frame, depth, parts, its draws)
        for frame in range(sc.frames):
            joints = [_person_joints(pid, spec, frame) for pid, spec in enumerate(sc.persons)]

            depth = np.zeros((sc.height, sc.width), dtype=np.float64)
            owner = np.full((sc.height, sc.width), -1, dtype=np.int32)
            drawn = []  # (pid, projected corners, block) per visible person
            for pid, spec in enumerate(sc.persons):
                if not sc.dropped(pid, frame):
                    box = spec.box_at(frame)
                    corners = _project_corners(box, cam)
                    drawn.append((pid, corners,
                                  _render_person(depth, owner, pid, box, *corners, cam)))

            gt_frames[frame] = [
                (pid, Pose3D(joints=person, root_index=BASIC15.root_index, skeleton_id=BASIC15.name))
                for pid, person in enumerate(joints)]

            parts = []  # (box, mask, keypoints) per detection, before keypoint noise
            for pid, (us, vs), block in drawn:
                if block is None:
                    continue
                # A person owns pixels only inside the block it was drawn in;
                # row-major order there keeps the frame indices ascending.
                r0, r1, c0, c1 = block
                rows, cols = np.divmod(np.flatnonzero(owner[r0:r1 + 1, c0:c1 + 1] == pid),
                                       c1 - c0 + 1)
                if rows.size == 0:
                    continue  # fully covered by a nearer person
                mask = encode_mask((rows + r0) * sc.width + cols + c0, sc.width, sc.height)
                box = Box2D(float(us.min()), float(vs.min()),
                            float(us.max()), float(vs.max())).clamp(sc.width, sc.height)
                ju, jv = _project(cam, *joints[pid][:, :3].T)
                kps = np.stack([ju, jv, np.ones_like(ju)], axis=1)
                parts.append((box, mask, kps))

            draws = worker.submit(draw, len(parts))
            if pending is not None:
                finish(*pending)
            pending = (frame, depth, parts, draws)
        finish(*pending)

    seq = SequenceInput(frames=tuple(frames), camera=cam, fps=sc.fps)
    return seq, GroundTruth(frames=gt_frames, skeleton_id=BASIC15.name)


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

_CAMERA = CameraModel(fx=600.0, fy=600.0, cx=320.0, cy=240.0)
_WIDTH, _HEIGHT = 640, 480


def _pixel_track(u0: float, u1: float, z: float, y: float,
                 frames: int) -> tuple[tuple[int, tuple[float, float, float]], ...]:
    """Constant-velocity world path whose projection through ``_CAMERA``
    moves u0 -> u1 pixels."""
    x0 = (u0 - _CAMERA.cx) * z / _CAMERA.fx
    x1 = (u1 - _CAMERA.cx) * z / _CAMERA.fx
    return ((0, (x0, y, z)), (frames - 1, (x1, y, z)))


def builtin(
    name: str,
    *,
    gap: int = 5,
    seed: int = 0,
    depth_noise: float = 0.0,
    keypoint_noise: float = 0.0,
) -> Scenario:
    """Catalog of occlusion/overlap stress scenarios by name."""
    common = dict(fps=20.0, camera=_CAMERA, width=_WIDTH, height=_HEIGHT,
                  seed=seed, depth_noise=depth_noise, keypoint_noise=keypoint_noise)
    if name == "parallel_walk":
        # Thick bodies kept on one side of the principal axis, so the visible
        # side face (and with it the measured depth span) varies smoothly.
        frames = 30
        return Scenario(
            name=name, frames=frames,
            persons=(
                PersonSpec(_pixel_track(380, 560, 3.5, -0.70, frames), (0.55, 1.3, 0.4)),
                PersonSpec(_pixel_track(560, 380, 5.0, 1.00, frames), (0.60, 1.8, 0.4)),
            ),
            **common,
        )
    if name == "depth_cross":
        # Equal pixel-size boxes whose centers swap exactly between frames 19
        # and 20; depths stay 3.5 m apart, so the wrong pairing is z-disjoint.
        frames = 40
        return Scenario(
            name=name, frames=frames,
            persons=(
                PersonSpec(_pixel_track(242.0, 398.0, 3.0, 0.0, frames), (0.55, 1.5, 0.0)),
                PersonSpec(_pixel_track(398.0, 242.0, 6.5, 0.0, frames), (0.55 * 6.5 / 3.0, 1.5 * 6.5 / 3.0, 0.0)),
            ),
            **common,
        )
    if name == "full_occlusion":
        # Flat body: the measured depth interval is identical in every frame,
        # so recovery after the gap depends only on the trajectory predictor.
        frames = max(30, 17 + gap + 8)
        return Scenario(
            name=name, frames=frames,
            persons=(
                PersonSpec(_pixel_track(170, 470, 4.0, 0.0, frames), (0.60, 1.7, 0.0)),
            ),
            dropouts=((0, 12, 12 + gap),),
            **common,
        )
    if name == "three_person_mix":
        frames = 40
        return Scenario(
            name=name, frames=frames,
            persons=(
                PersonSpec(_pixel_track(180, 460, 3.2, -0.30, frames), (0.55, 1.4, 0.0)),
                PersonSpec(_pixel_track(460, 180, 6.0, -0.5625, frames), (1.00, 2.6, 0.0)),
                PersonSpec(_pixel_track(200, 280, 4.5, 1.29, frames), (0.55, 1.0, 0.3)),
            ),
            dropouts=((2, 20, 24),),
            **common,
        )
    raise ScenarioError(f"unknown scenario {name!r}; known: {', '.join(BUILTIN_NAMES)}")


# ---------------------------------------------------------------------------
# Scenario JSON and output bundles
# ---------------------------------------------------------------------------

def scenario_to_dict(sc: Scenario) -> dict:
    return asdict(sc)


def _numbers(values, person: int, what: str) -> tuple[float, ...]:
    """``values`` as floats; each must be a JSON number (not a bool or a
    string), else an error naming person ``person``'s ``what``."""
    if not all(type(v) in (int, float) for v in values):
        raise ScenarioError(f"person {person} {what} must be numbers, got {values!r}")
    return tuple(map(float, values))


def scenario_from_dict(obj: dict) -> Scenario:
    """The scenario a ``scenario_to_dict`` object describes, built by keyword,
    so a key that names no field is an error, named before any value is
    read; ``name`` and ``fps`` may be left out."""
    try:
        signature(Scenario).bind_partial(**obj)
        persons = tuple(  # each built by keyword first, so a wrong key is named
            PersonSpec(tuple((f, _numbers(pt, i, "waypoint coordinates"))
                             for f, pt in p.waypoints),
                       _numbers(p.extent, i, "extent values"))
            for i, p in enumerate(PersonSpec(**spec) for spec in obj["persons"])
        )
        return Scenario(**{"name": "custom", "fps": 20.0, **obj, "persons": persons,
                           "camera": CameraModel(**obj["camera"]),
                           "dropouts": tuple(map(tuple, obj.get("dropouts", ())))})
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ScenarioError(f"malformed scenario spec: {e}") from None


def load_scenario(path: str | Path) -> Scenario:
    obj = read_json(Path(path))  # its ParseError names the file already
    try:
        return scenario_from_dict(obj)
    except PoseTrackError as e:
        raise type(e)(f"{path}: {e}") from None


def ground_truth_tracks(sc: Scenario, gt: GroundTruth) -> list[Track]:
    """Ground truth reshaped into the tracks-file schema (id = person)."""
    tracks = []
    for pid, spec in enumerate(sc.persons):
        track = Track(track_id=pid, birth_frame=0)
        for frame in range(sc.frames):
            _, pose = gt.frames[frame][pid]  # each frame lists every person in order
            track.states.append(TrackState(
                frame_index=frame, kind=OBSERVED,
                box3d=spec.box_at(frame), pose3d=pose,
            ))
        tracks.append(track)
    return tracks


def write_scenario_bundle(sc: Scenario, out_dir: str | Path) -> dict[str, Path]:
    """Render a scenario and write every engine input artifact into out_dir.

    Produces the detections file, per-frame depth rasters, the ground-truth
    file, the scenario echo, and a ready-to-use engine config.  The
    scenario is rendered before any directory is made, so a scenario that
    fails to render leaves nothing behind.
    """
    seq, gt = generate(sc)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    depth_dir = out_dir / "depth"
    depth_dir.mkdir(exist_ok=True)
    all_dets = [det for frame in seq.frames for det in frame.detections]
    paths = {
        "detections": out_dir / "detections.jsonl",
        "ground_truth": out_dir / "ground_truth.jsonl",
        "scenario": out_dir / "scenario.json",
        "config": out_dir / "config.json",
        "depth_dir": depth_dir,
    }
    write_detections(paths["detections"], all_dets)
    for frame in seq.frames:
        write_depth(depth_dir / f"{frame.frame_index}.dpt", frame.load())
    write_tracks(paths["ground_truth"], ground_truth_tracks(sc, gt),
                 skeleton_id=BASIC15.name, fps=sc.fps, kind="ground_truth")
    paths["scenario"].write_bytes(encode(scenario_to_dict(sc), indent=True) + b"\n")
    write_config(paths["config"], EngineConfig(camera=sc.camera, fps=sc.fps))
    return paths
