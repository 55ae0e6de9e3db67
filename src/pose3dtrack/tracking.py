"""Frame-to-frame identity tracking over lifted 3D boxes and poses.

Association is an optimal one-to-one assignment on IOU (3D by default, with
2D image-space IOU available as the traditional baseline), gated by a
minimum IOU.  Tracks that miss a detection are extended with predicted
states from a trajectory predictor so they can re-capture their person
after an occlusion gap; trailing predictions are discarded when a track
ends, so gaps are bridged but exits are never hallucinated.
"""

from __future__ import annotations

import gc
import math
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from itertools import chain, islice
from operator import attrgetter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

# lift_frame calls depth_extrema and the frame kernel lift_poses through
# their modules, where per-layer tracing patches them.
from . import __version__, geometry, pose3d
from .errors import ParseError, PoseTrackError, SequencingError, ValidationError
from .geometry import Box3D, iou2d_matrix, iou3d_matrix, lift_box
from .ingest import (
    BASIC15,
    Box2D,
    CameraModel,
    DepthMap,
    Detection,
    LiftingConfig,
    SequenceInput,
    Skeleton,
    TrackerConfig,
    _unchecked,
    get_skeleton,
)
from .jsonio import encode, json_int, json_lines
from .pose3d import Pose3D

OBSERVED = "obs"
PREDICTED = "pred"
_FLOAT_MAX = float(np.finfo(np.float64).max)


def _box_rows(boxes: list, cls: type = Box3D) -> np.ndarray:
    """Each box's fields, in ``as_array``/``as_tuple`` order, as one float64 row."""
    names = cls.__dataclass_fields__
    values = chain.from_iterable(map(attrgetter(*names), boxes))
    return np.fromiter(values, np.float64, len(boxes) * len(names)).reshape(-1, len(names))


@dataclass(frozen=True, slots=True)
class TrackState:
    frame_index: int
    kind: str  # OBSERVED or PREDICTED
    box3d: Box3D
    pose3d: Pose3D
    box2d: Box2D | None = None
    detection: Detection | None = None


@dataclass
class Track:
    track_id: int
    birth_frame: int
    states: list[TrackState] = field(default_factory=list)
    gap_run: int = 0
    terminated: bool = False

    @property
    def last_state(self) -> TrackState:
        return self.states[-1]

    def drop_trailing_predictions(self) -> None:
        while self.states and self.states[-1].kind == PREDICTED:
            self.states.pop()
        self.gap_run = 0


# ---------------------------------------------------------------------------
# Assignment
# ---------------------------------------------------------------------------

def _dense_assignment(cost: np.ndarray) -> np.ndarray:
    """Each row's column in a minimum-``cost`` assignment of a dense
    matrix with no more rows than columns: shortest augmenting paths with
    dual potentials (Crouse, IEEE TAES 2016), one row added per pass."""
    n, m = cost.shape
    u, v = np.zeros(n), np.zeros(m)
    col4row, row4col = np.full(n, -1), np.full(m, -1)
    for cur in range(n):
        # Dijkstra over columns from row cur until it reaches a free column.
        # A closed column's potential reads -inf in `shut`, so no path
        # reaches it again; reached[j] is its distance when it closed.
        dist, reached, path = np.full(m, np.inf), np.full(m, np.inf), np.full(m, -1)
        shut, seen_r, free = v.copy(), [cur], np.flatnonzero(row4col < 0)
        i, reach = cur, 0.0
        while True:
            through = cost[i] - shut
            through += reach - u[i]
            closer = through < dist
            np.copyto(dist, through, where=closer)
            path[closer] = i
            j = int(dist.argmin())
            reach = float(dist[j])
            if row4col[j] >= 0:  # at equal distance a free column ends the search
                k = int(free[dist[free].argmin()])
                j = k if dist[k] == reach else j
            shut[j], reached[j], dist[j] = -np.inf, reach, np.inf
            if row4col[j] < 0:
                break
            i = int(row4col[j])
            seen_r.append(i)
        closed = shut == -np.inf
        others = seen_r[1:]
        u[cur] += reach
        u[others] += reach - reached[col4row[others]]
        v[closed] -= reach - reached[closed]
        while True:  # flip the path back to row cur
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _assignment(cost: np.ndarray, allowed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``allowed`` (rows, cols) of a minimum-``cost`` assignment.

    Every disallowed pair must cost the same, more than any allowed pair;
    then a minimum-cost assignment is a maximum-weight matching of allowed
    pairs, weighing ``disallowed cost - cost``, which splits over the
    components of the ``allowed`` graph.  A pair alone on its row and its
    column is a component of its own and is taken as it is; the other
    rows and columns with an allowed pair are solved densely together.
    """
    rows, cols = np.nonzero(allowed)
    if len(set(rows.tolist())) == len(set(cols.tolist())) == len(rows):
        return rows, cols  # every pair is alone
    row_deg, col_deg = allowed.sum(axis=1), allowed.sum(axis=0)
    alone = allowed & (row_deg == 1)[:, None] & (col_deg == 1)
    rows, cols = np.nonzero(alone)
    rest_r = np.flatnonzero((row_deg > 0) & ~alone.any(axis=1))
    if not rest_r.size:
        return rows, cols
    rest_c = np.flatnonzero((col_deg > 0) & ~alone.any(axis=0))
    sub = cost[np.ix_(rest_r, rest_c)]
    if len(rest_r) <= len(rest_c):
        sub_r, sub_c = np.arange(len(rest_r)), _dense_assignment(sub)
    else:
        sub_r, sub_c = _dense_assignment(sub.T), np.arange(len(rest_c))
    sub_r, sub_c = rest_r[sub_r], rest_c[sub_c]
    keep = allowed[sub_r, sub_c]
    return np.concatenate([rows, sub_r[keep]]), np.concatenate([cols, sub_c[keep]])


def canonical_matching(cost: np.ndarray, allowed: np.ndarray,
                       value: Callable) -> list[tuple[int, int]]:
    """The canonical maximum-``value`` matching of rows to columns, by row.

    The rule: among the matchings of ``allowed`` pairs with maximal
    ``value(pairs)``, rows in ascending order each take the lowest column
    still possible, and staying unmatched ranks after every column.  Every
    disallowed pair costs the same, more than any allowed pair, and a
    minimum-``cost`` assignment without its disallowed pairs must have
    maximal value; ``value`` should sum exactly (``math.fsum``).

    One solve of the in-tree kernel gives a maximal matching: a pair alone
    on its row and its column is taken as it is, and the rows and columns
    left with an allowed pair go to one dense shortest-augmenting-path
    solve.  A row is movable when an allowed column below its own (any, if
    it is unmatched) is held by no earlier row; with none, no matching
    ranks before this one.  Else the first movable row tries those columns
    in ascending order, solving the later rows again, keeps the first that
    stays maximal, and the scan goes on from the next row.
    """
    n, m = cost.shape

    def pairs(col: np.ndarray) -> list[tuple[int, int]]:
        return [(r, c) for r, c in enumerate(col.tolist()) if c < m]

    rows, cols = _assignment(cost, allowed)
    if len(rows) == np.count_nonzero(allowed):  # every pair alone: nothing can move
        return list(zip(rows.tolist(), cols.tolist()))
    col = np.full(n, m)  # each row's column; m: unmatched
    col[rows] = cols
    row_ids, col_ids = np.arange(n), np.arange(m)
    start, best = 0, None
    while True:
        owner = np.full(m + 1, n)
        owner[col] = row_ids  # owner[m] collects the unmatched rows; unused
        movable = allowed & (col_ids < col[:, None]) & (owner[:m] >= row_ids[:, None])
        movable[:start] = False
        hits = np.flatnonzero(movable.any(axis=1))
        if not hits.size:
            return pairs(col)
        r = int(hits[0])
        best = value(pairs(col)) if best is None else best
        for c in np.flatnonzero(movable[r]).tolist():
            trial = col.copy()
            trial[r], trial[r + 1:] = c, m
            free = np.setdiff1d(col_ids, trial[:r + 1])
            sub_r, sub_c = _assignment(cost[r + 1:][:, free], allowed[r + 1:][:, free])
            trial[sub_r + r + 1] = free[sub_c]
            if (trial_value := value(pairs(trial))) >= best:
                col, best = trial, trial_value
                break
        start = r + 1


def assign_by_iou(iou: np.ndarray, gate: float) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Maximum-total-IOU one-to-one assignment over pairs that overlap
    (IOU > 0) and pass the gate (IOU >= gate).

    Returns (pairs, unmatched_rows, unmatched_cols) in row/column indices.
    Exact ties follow :func:`canonical_matching`: rows in ascending order
    each take the lowest column still possible.
    """
    iou = np.asarray(iou, dtype=np.float64)
    n, m = iou.shape
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    allowed = (iou > 0.0) & (iou >= gate)
    pairs = canonical_matching(-np.where(allowed, iou, 0.0), allowed,
                               lambda pairs: math.fsum(iou[r, c] for r, c in pairs))
    matched_r = {r for r, _ in pairs}
    matched_c = {c for _, c in pairs}
    return (pairs,
            [r for r in range(n) if r not in matched_r],
            [c for c in range(m) if c not in matched_c])


def associate(
    track_boxes: list[Box3D] | list[Box2D],
    det_boxes: list[Box3D] | list[Box2D],
    gate: float,
    mode: str = "iou3d",
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Optimally match track boxes to detection boxes by IOU.

    Box types must match the mode: Box3D for "iou3d", Box2D for "iou2d".
    Returns :func:`assign_by_iou`'s (pairs, unmatched_tracks,
    unmatched_detections) as positions in the two lists; at exact ties,
    tracks in list order each take the lowest detection position possible.
    """
    if mode == "iou3d":
        iou = iou3d_matrix(_box_rows(track_boxes), _box_rows(det_boxes))
    elif mode == "iou2d":
        iou = iou2d_matrix(_box_rows(track_boxes, Box2D), _box_rows(det_boxes, Box2D))
    else:
        raise ValidationError(f"unknown association mode {mode!r}")
    return assign_by_iou(iou, gate)


# ---------------------------------------------------------------------------
# Trajectory prediction
# ---------------------------------------------------------------------------

def _linear_fit_extrapolate(t: np.ndarray, denom: float, ahead: float,
                            values: np.ndarray) -> np.ndarray:
    """Least-squares line per column of `values` over the centred frames
    `t` (``denom`` is ``t @ t``), evaluated `ahead` of their mean."""
    mean = values.sum(axis=0) / len(values)  # np.mean's bits without its overhead
    slope = (t @ (values - mean)) / denom
    return mean + slope * ahead


def predict(track: Track, window: int, target_frame: int) -> tuple[Box3D, Pose3D, Box2D | None]:
    """Constant-velocity extrapolation of a track to `target_frame`, the
    frame the tracker is stepping.

    Fits a least-squares line per box corner and per joint coordinate over
    the up-to-`window` most recent observed states; a single observation
    extrapolates with zero velocity.  A box whose fitted extents are not
    strictly increasing on every axis (a box that narrowed before the miss)
    is replaced by the last observed box, for the 3D and the 2D box alike.
    Only the window's states are read, and its blocks share one time base.

    Frames are counted from the last observed one, an exact integer shift,
    so adding a constant to every frame leaves the prediction's bits alone.
    """
    observed = list(islice((s for s in reversed(track.states) if s.kind == OBSERVED), window))[::-1]
    if not observed:
        raise ValidationError("predict: track has no observed state")
    last = observed[-1]
    frames = np.array([s.frame_index - last.frame_index for s in observed], dtype=np.float64)
    centre = frames.sum() / len(frames)
    t = frames - centre
    denom = float(np.dot(t, t))
    ahead = float(target_frame - last.frame_index) - centre

    def fit(values: np.ndarray) -> np.ndarray:
        return values[0] if len(observed) == 1 else _linear_fit_extrapolate(t, denom, ahead, values)

    box_fit = fit(_box_rows([s.box3d for s in observed]))
    box = Box3D(*box_fit.tolist()) if (box_fit[0::2] < box_fit[1::2]).all() else last.box3d
    joints = np.stack([s.pose3d.joints for s in observed])
    joints_xyz = fit(joints[:, :, :3].reshape(len(observed), -1)).reshape(-1, 3)
    pose = Pose3D(joints=np.concatenate([joints_xyz, last.pose3d.joints[:, 3:4]], axis=1),
                  root_index=last.pose3d.root_index, skeleton_id=last.pose3d.skeleton_id)

    box2d = None
    if all(s.box2d is not None for s in observed):
        fit2d = fit(_box_rows([s.box2d for s in observed], Box2D))
        box2d = Box2D(*fit2d.tolist()) if (fit2d[:2] < fit2d[2:]).all() else last.box2d
    return box, pose, box2d


# ---------------------------------------------------------------------------
# Tracker
# ---------------------------------------------------------------------------

class Tracker:
    """Stateful frame-wise tracker; fold frames through :meth:`step`."""

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.live: list[Track] = []
        self.tracks: list[Track] = []  # every track, in spawn order: its id is its position
        self.last_frame = -1

    def step(self, frame_index: int, items: list[tuple[Detection, Box3D, Pose3D]]) -> None:
        if frame_index <= self.last_frame:
            raise SequencingError(
                f"frame {frame_index} after frame {self.last_frame}"
            )
        self.last_frame = frame_index
        cfg = self.cfg

        # self.live is in ascending id order (ids grow, termination keeps
        # order), so list positions break ties as ids would.
        if cfg.association_mode == "iou3d":
            track_boxes = [t.last_state.box3d for t in self.live]
            det_boxes = [box for _, box, _ in items]
        else:
            track_boxes = [t.last_state.box2d for t in self.live]
            det_boxes = [det.box for det, _, _ in items]
        pairs, unmatched_tracks, unmatched_dets = associate(
            track_boxes, det_boxes, cfg.iou_gate, cfg.association_mode)

        for row, col in pairs:
            det, box3d, pose = items[col]
            track = self.live[row]
            track.states.append(TrackState(frame_index, OBSERVED, box3d, pose,
                                           box2d=det.box, detection=det))
            track.gap_run = 0

        for row in unmatched_tracks:
            track = self.live[row]
            if track.gap_run + 1 > cfg.max_gap:
                self._terminate(track)
                continue
            box3d, pose, box2d = predict(track, cfg.predictor_window, frame_index)
            track.states.append(TrackState(frame_index, PREDICTED, box3d, pose,
                                           box2d=box2d))
            track.gap_run += 1
        self.live = [t for t in self.live if not t.terminated]

        spawn = [i for i in unmatched_dets if items[i][0].score >= cfg.min_track_score]
        spawn.sort(key=lambda i: (-items[i][0].score, i))
        for det_index in spawn:
            det, box3d, pose = items[det_index]
            track = Track(track_id=len(self.tracks), birth_frame=frame_index)
            track.states.append(TrackState(frame_index, OBSERVED, box3d, pose,
                                           box2d=det.box, detection=det))
            self.tracks.append(track)
            self.live.append(track)

    def _terminate(self, track: Track) -> None:
        track.drop_trailing_predictions()
        track.terminated = True

    def finalize(self) -> list[Track]:
        """Close all live tracks and return every track in id order."""
        for track in self.live:
            self._terminate(track)
        self.live = []
        return self.tracks


def lift_frame(
    dets: Sequence[Detection],
    depth: DepthMap,
    cam: CameraModel,
    lifting: LiftingConfig,
) -> list[tuple[Detection, Box3D, Pose3D]]:
    """Lift one frame's detections into the items :meth:`Tracker.step` takes.

    Each person's depth span is measured once and shared by the box lift
    and the frame's one pose-lifting pass.  Each detection's span, box and
    root are taken in input order before the next one's, so a frame's
    first unliftable detection, in input order, is the one reported.
    """
    spans, boxes = [], []
    for det in dets:
        extrema = geometry.depth_extrema(depth, det.mask, det.box, lifting.depth_percentile)
        boxes.append(lift_box(det.box, extrema, cam, lifting.min_thickness))
        pose3d.require_root(det)
        spans.append(extrema)
    poses = pose3d.lift_poses(dets, depth, cam, lifting.patch, spans)
    return list(zip(dets, boxes, poses))


def run_sequence(
    seq: SequenceInput,
    cfg: TrackerConfig,
    lifting: LiftingConfig | None = None,
) -> list[Track]:
    """Lift each frame with :func:`lift_frame` and fold the tracker over
    the sequence.

    One worker loads the next frame's raster while this frame is lifted,
    so at most two rasters are alive.  Loads are taken in frame order, so a
    load fault is reported as its own frame's, after every earlier frame's
    faults; a load made ahead of an earlier fault is discarded.
    """
    lifting = lifting or LiftingConfig()
    tracker = Tracker(cfg)
    frames = seq.frames
    with ThreadPoolExecutor(max_workers=1) as loader:  # leaving the block joins it
        ahead = loader.submit(frames[0].load) if frames else None
        for i, frame in enumerate(frames):
            try:
                depth = ahead.result()
                ahead = loader.submit(frames[i + 1].load) if i + 1 < len(frames) else None
                items = lift_frame(frame.detections, depth, seq.camera, lifting)
                del depth  # its future is gone too: only the next raster stays alive
                tracker.step(frame.frame_index, items)
            except PoseTrackError as e:
                raise type(e)(f"frame {frame.frame_index}: {e}") from e
    return tracker.finalize()


# ---------------------------------------------------------------------------
# Tracks file IO (shared with the ground-truth format)
# ---------------------------------------------------------------------------

def write_tracks(
    path: str | Path,
    tracks: list[Track],
    skeleton_id: str,
    fps: float,
    tracker_cfg: TrackerConfig | None = None,
    kind: str = "tracks",
) -> None:
    """Write tracks as JSON lines with a leading header record, each line
    the bytes of ``json.dumps`` of its record."""
    header: dict = {
        "kind": kind,
        "engine_version": __version__,
        "skeleton": skeleton_id,
        "fps": fps,
    }
    if tracker_cfg is not None:
        header["tracker"] = {**asdict(tracker_cfg), "predictor": "linear"}
    with open(path, "wb") as f:
        f.write(encode({"header": header}) + b"\n")
        for track in tracks:
            f.write(encode({"id": track.track_id, "birth": track.birth_frame, "states": [
                {"frame": s.frame_index, "kind": s.kind, "box3d": s.box3d.as_array(),
                 "pose3d": s.pose3d.joints} for s in track.states]}))
            f.write(b"\n")


def _states_from_arrays(states, skel: Skeleton) -> list[TrackState] | None:
    """One track's states from one (S, 6) box array and one (S, J, 4) joint
    array: checked once at the boundary, each rule with one reduction, and
    built unchecked inside; None when any state would fail a check of the
    per-state reading, which then raises that state's error.

    Boxes, poses and joint rows must be lists of the right lengths; their
    values convert as in the per-state reading (``float()`` and NumPy's
    float64 cast agree on numbers, numeric strings and bools).
    """
    n, j = len(states), skel.joint_count
    try:
        kinds = [s["kind"] for s in states]
        frames = [s["frame"] for s in states]
        boxes = [s["box3d"] for s in states]
        poses = [s["pose3d"] for s in states]
        rows = list(chain.from_iterable(poses))
        if not (set(kinds) <= {OBSERVED, PREDICTED} and set(map(type, frames)) <= {int}
                and set(map(type, boxes + poses + rows)) <= {list} and set(map(len, boxes)) <= {6}
                and set(map(len, poses)) <= {j} and set(map(len, rows)) <= {4}
                and len(set(frames)) == n):
            return None
        boxes = np.fromiter(chain.from_iterable(boxes), np.float64, 6 * n).reshape(n, 6)
        joints = np.fromiter(chain.from_iterable(rows), np.float64, 4 * j * n)
        joints.shape = (n, j, 4)  # in place: each pose is a row of this one array
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if not (np.isfinite(joints).all() and np.isfinite(boxes).all()
            and (boxes[:, 0::2] < boxes[:, 1::2]).all()):
        return None
    return [TrackState(frame, kind, _unchecked(Box3D, *box),
                       _unchecked(Pose3D, pose, skel.root_index, skel.name))
            for frame, kind, box, pose in zip(frames, kinds, boxes.tolist(), joints)]


def read_tracks(path: str | Path) -> tuple[dict, list[Track]]:
    """Read a tracks (or ground-truth) file; returns (header, tracks).

    Each track's states are read as two arrays; a track with a bad state is
    read again state by state, so the error names the first bad state's
    fault.  The poses of one track are rows of one joint array.  Track ids,
    births and state frames must be JSON integers, and no two states of one
    track may share a frame.  The header's skeleton (``basic15`` without a
    header, or a header without one) is checked once, on the header line.

    The cyclic garbage collector is paused for the whole read: the decoded
    lines and the ``TrackState``, ``Box3D`` and ``Pose3D`` objects built
    from them hold no reference cycles, so its passes would free nothing,
    yet the thousands of lists each line decodes into trigger them, full
    collections included.  It is enabled again on return only if it was
    enabled on entry.  The switch is process-wide, so code that toggles it
    from another thread during a read is not supported.
    """
    path = Path(path)
    header: dict = {}
    skel = BASIC15
    tracks: list[Track] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for lineno, obj in json_lines(path):
            try:
                if "header" in obj:
                    header = obj["header"]
                    if not isinstance(header, dict):
                        raise ParseError(f"{path}: header is not a JSON object", line=lineno)
                    # A number a float holds; finite and > 0 is the exporter's
                    # check, as its --fps flag may stand in for the header's.
                    fps = header.get("fps", 0.0)
                    if not (type(fps) is float or type(fps) is int and abs(fps) <= _FLOAT_MAX):
                        raise ParseError(f"{path}: header fps must be a number, got {fps!r}",
                                         line=lineno)
                    skel = get_skeleton(header.get("skeleton", BASIC15.name))
                    continue
                track = Track(track_id=json_int(obj["id"], "id", path, lineno),
                              birth_frame=json_int(obj["birth"], "birth", path, lineno))
                states = _states_from_arrays(obj["states"], skel)
                if states is None:  # a state is bad: read state by state to name it
                    states, frames = [], set()
                    for s in obj["states"]:
                        if s["kind"] not in (OBSERVED, PREDICTED):
                            raise ParseError(
                                f"{path}: unknown state kind {s['kind']!r}", line=lineno)
                        frame = json_int(s["frame"], "frame", path, lineno)
                        if frame in frames:
                            raise ParseError(f"{path}: track {track.track_id} has two states "
                                             f"at frame {frame}", line=lineno)
                        frames.add(frame)
                        states.append(TrackState(
                            frame_index=frame,
                            kind=s["kind"],
                            box3d=Box3D.from_array(s["box3d"]),
                            pose3d=Pose3D(s["pose3d"], skel.root_index, skel.name),
                        ))
                track.states = states
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise ParseError(f"{path}: malformed track record ({e})", line=lineno) from None
            except ValidationError as e:
                raise ValidationError(f"{path}: line {lineno}: {e}") from None
            tracks.append(track)
    finally:
        if gc_was_enabled:
            gc.enable()
    return header, tracks
