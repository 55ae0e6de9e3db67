"""Canonical data model and parsers for the engine's input artifacts.

File formats handled here:

* Detections: UTF-8 JSON lines, one detection per line::

    {"frame": int, "box": [x_min, y_min, x_max, y_max],
     "mask": {"w": int, "h": int, "runs": [[start, len], ...]},
     "keypoints": [[u, v, conf], ...], "score": float}

  Mask runs are row-major pixel intervals and must be canonical: sorted,
  non-overlapping and non-adjacent (adjacent runs must be merged).

* Depth raster (one file per frame, ``<frame>.dpt``): ASCII header line
  ``DPTH <width> <height>\\n`` followed by width*height little-endian
  32-bit IEEE-754 floats, row-major.  Depth 0.0 marks an invalid pixel.

* Config: a single JSON object holding the camera model plus lifting and
  tracker parameters (see ``EngineConfig``).
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ParseError, PoseTrackError, ValidationError
from .jsonio import encode, json_int, json_lines, read_json

DEPTH_MAGIC = "DPTH"


# ---------------------------------------------------------------------------
# Skeletons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Skeleton:
    name: str
    joint_names: tuple[str, ...]
    root_index: int

    def __post_init__(self):
        if not 0 <= self.root_index < self.joint_count:
            raise ValidationError(f"Skeleton {self.name!r}: root_index {self.root_index} "
                                  f"out of range for {self.joint_count} joints")

    @property
    def joint_count(self) -> int:
        return len(self.joint_names)


BASIC15 = Skeleton(
    name="basic15",
    joint_names=(
        "head", "neck",
        "r_shoulder", "r_elbow", "r_wrist",
        "l_shoulder", "l_elbow", "l_wrist",
        "r_hip", "r_knee", "r_ankle",
        "l_hip", "l_knee", "l_ankle",
        "pelvis",
    ),
    root_index=14,
)

_SKELETONS: dict[str, Skeleton] = {BASIC15.name: BASIC15}


def register_skeleton(skeleton: Skeleton) -> None:
    _SKELETONS[skeleton.name] = skeleton


def get_skeleton(skeleton_id: str) -> Skeleton:
    try:
        return _SKELETONS[skeleton_id]
    except KeyError:
        raise ValidationError(f"unknown skeleton_id {skeleton_id!r}") from None


# ---------------------------------------------------------------------------
# Core value types
# ---------------------------------------------------------------------------

def check_numbers(obj, to_float: bool = False) -> None:
    """Each ``float`` field of dataclass ``obj`` must hold a real number (a NumPy
    scalar, not a bool or a string); ``to_float`` then stores it as a float."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "float":  # annotations are postponed (strings) here and in synth
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                name = type(obj).__name__
                raise ValidationError(f"{name}: {f.name} must be a number, got {value!r}")
            if to_float:
                object.__setattr__(obj, f.name, float(value))


def _unchecked(cls, *values):
    """A ``cls`` dataclass holding ``values`` in field order, built without
    ``__post_init__``: only for values a check over their whole batch passed."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics; world_scale converts depth units to output units."""

    fx: float
    fy: float
    cx: float
    cy: float
    world_scale: float = 1.0

    def __post_init__(self):
        check_numbers(self)
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.cx, self.cy)):
            raise ValidationError("CameraModel: fx, fy, cx and cy must be finite")
        if not (self.fx > 0 and self.fy > 0):
            raise ValidationError("CameraModel: fx and fy must be > 0")
        if not (math.isfinite(self.world_scale) and self.world_scale > 0):
            raise ValidationError("CameraModel: world_scale must be finite and > 0")

    def back_project(self, u: float, v: float, z: float) -> tuple[float, float]:
        """Pixel (u, v) at depth z -> (X, Y)."""
        x = (u - self.cx) * z * self.world_scale / self.fx
        y = (v - self.cy) * z * self.world_scale / self.fy
        return x, y


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned pixel box, continuous coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValidationError(
                f"Box2D: degenerate box ({self.x_min}, {self.y_min}, "
                f"{self.x_max}, {self.y_max})"
            )

    def _clamped(self, width: int, height: int) -> tuple[float, float, float, float]:
        """The box clamped to a width x height frame, in xyxy order."""
        x0 = min(max(self.x_min, 0.0), width - 1.0)
        x1 = min(max(self.x_max, 0.0), width - 1.0)
        y0 = min(max(self.y_min, 0.0), height - 1.0)
        y1 = min(max(self.y_max, 0.0), height - 1.0)
        if not (x0 < x1 and y0 < y1):
            raise ValidationError("Box2D: empty after clamping to image bounds")
        return x0, y0, x1, y1

    def clamp(self, width: int, height: int) -> "Box2D":
        return Box2D(*self._clamped(width, height))

    def pixel_bounds(self, width: int, height: int) -> tuple[int, int, int, int]:
        """Inclusive integer columns c0..c1 and rows r0..r1 of the pixels inside
        the box clamped to a width x height frame, as (c0, c1, r0, r1); empty
        (c0 > c1 or r0 > r1) when the clamped box holds no pixel centre."""
        x0, y0, x1, y1 = self._clamped(width, height)  # past 2**53, w - 1.0 can round up
        return (math.ceil(x0), min(math.floor(x1), width - 1),
                math.ceil(y0), min(math.floor(y1), height - 1))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _bad_run(start, length, prev_end, total):
    """Whether run (start, length) of a mask of ``total`` pixels breaks the
    canonical-run rule: length >= 1, start past ``prev_end``, the end of the
    run before (-1 for a mask's first run), end within the mask.  For one
    run as Python ints, or elementwise over arrays."""
    return (length <= 0) | (start <= prev_end) | (length > total - start)


def _mask_pixels(width, height):
    """Pixel count of a width x height mask; both sides must be positive and
    the count within the int64 index range."""
    if width <= 0 or height <= 0:
        raise ValidationError("Mask2D: non-positive dimensions")
    total = width * height
    if total > _INT64_MAX:
        raise ValidationError(f"Mask2D: {width}x{height} pixels exceed the int64 index range")
    return total


@dataclass(frozen=True, eq=False)
class Mask2D:
    """Run-length encoded binary mask over row-major pixel order.

    ``runs`` is a read-only (n, 2) int64 array of (start, length) rows,
    converted from any (n, 2) integer sequence.
    """

    width: int
    height: int
    runs: np.ndarray  # (n, 2) int64

    def __post_init__(self):
        total = _mask_pixels(self.width, self.height)
        runs = np.array(self.runs, dtype=np.int64)
        if runs.size == 0:
            runs = runs.reshape(0, 2)
        if runs.ndim != 2 or runs.shape[1] != 2:
            raise ValidationError(
                f"Mask2D: runs must be (start, length) pairs, got shape {runs.shape}"
            )
        runs.setflags(write=False)
        object.__setattr__(self, "runs", runs)
        prev_end = -1  # require a gap of >=1 so the encoding is canonical
        for start, length in runs.tolist():
            if _bad_run(start, length, prev_end, total):
                if length <= 0:
                    raise ValidationError(f"Mask2D: run ({start}, {length}) has length <= 0")
                if start <= prev_end:
                    raise ValidationError(
                        f"Mask2D: run starting at {start} overlaps or touches the previous run"
                    )
                raise ValidationError(
                    f"Mask2D: run ({start}, {length}) exceeds {self.width}x{self.height}"
                )
            prev_end = start + length

    def __eq__(self, other):
        if not isinstance(other, Mask2D):
            return NotImplemented
        return ((self.width, self.height) == (other.width, other.height)
                and np.array_equal(self.runs, other.runs))

    def __hash__(self):  # equal masks have equal sizes
        return hash((self.width, self.height))


def mask_indices(mask: Mask2D) -> np.ndarray:
    """Covered indices as a sorted int64 array (fast path for sampling)."""
    if not len(mask.runs):
        return np.empty(0, dtype=np.int64)
    starts, lengths = mask.runs[:, 0], mask.runs[:, 1]
    ends = np.cumsum(lengths)  # run ends in output positions
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


def encode_mask(indices, width: int, height: int) -> Mask2D:
    """Build the canonical Mask2D covering exactly the given pixel indices."""
    idx = np.asarray(sorted(indices) if isinstance(indices, set) else indices,
                     dtype=np.int64)
    if idx.ndim != 1 or np.any(idx[1:] <= idx[:-1]):  # not already strictly increasing
        idx = np.unique(idx)
    if idx.size and (idx[0] < 0 or idx[-1] >= width * height):
        raise ValidationError("encode_mask: index out of bounds")
    _mask_pixels(width, height)
    opens = np.ones(idx.size, dtype=bool)  # index i starts a run
    opens[1:] = np.diff(idx) > 1
    starts, ends = idx[opens], idx[np.roll(opens, -1)]  # a run ends before the next opens
    runs = np.column_stack((starts, ends - starts + 1))
    runs.setflags(write=False)
    # Runs of distinct, in-bounds, ascending indices are canonical: no run check.
    return _unchecked(Mask2D, width, height, runs)


@dataclass(frozen=True, eq=False)
class Keypoints2D:
    """Ordered 2D joints (u, v, confidence) for one skeleton convention."""

    joints: np.ndarray  # (J, 3) float64
    skeleton_id: str = BASIC15.name

    def __post_init__(self):
        arr = np.asarray(self.joints, dtype=np.float64)
        object.__setattr__(self, "joints", arr)
        skel = get_skeleton(self.skeleton_id)
        if arr.shape != (skel.joint_count, 3):
            raise ValidationError(
                f"Keypoints2D: expected {skel.joint_count}x3 joints for "
                f"{self.skeleton_id!r}, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("Keypoints2D: non-finite coordinate")
        conf = arr[:, 2]
        if np.any(conf < 0.0) or np.any(conf > 1.0):
            raise ValidationError("Keypoints2D: confidence outside [0, 1]")

    def __eq__(self, other):
        if not isinstance(other, Keypoints2D):
            return NotImplemented
        return self.skeleton_id == other.skeleton_id and np.array_equal(self.joints, other.joints)

    def __hash__(self):  # equal keypoints have equal skeletons
        return hash(self.skeleton_id)


@dataclass(frozen=True)
class Detection:
    """One person in one frame as produced by the upstream networks."""

    frame_index: int
    box: Box2D
    mask: Mask2D
    keypoints: Keypoints2D
    score: float

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValidationError("Detection: negative frame_index")
        if not (0.0 <= self.score <= 1.0):
            raise ValidationError(f"Detection: score {self.score} outside [0, 1]")
        if not len(self.mask.runs):  # runs have length >= 1, so no runs means no pixel
            raise ValidationError("Detection: empty mask")
        if not _box_overlaps_mask(self.box, self.mask):
            raise ValidationError("Detection: box does not overlap mask support")


def _run_meets_box(start, length, c0, r0, c1, r1, width):
    """Whether run (start, length) of a frame ``width`` pixels wide holds a
    pixel in columns c0..c1 and rows r0..r1: it meets row r's columns iff
    r*width + c0 <= start + length - 1 and start <= r*width + c1.  For one
    run as Python ints, or elementwise over arrays."""
    lo, hi = -((c1 - start) // width), (start + length - 1 - c0) // width
    return (c0 <= c1) & (r0 <= r1) & (lo <= hi) & (lo <= r1) & (r0 <= hi)


def _box_overlaps_mask(box: Box2D, mask: Mask2D) -> bool:
    c0, c1, r0, r1 = box.pixel_bounds(mask.width, mask.height)
    return any(_run_meets_box(start, length, c0, r0, c1, r1, mask.width)
               for start, length in mask.runs.tolist())


_FLOAT32_INF_BITS = 0x7F800000  # the bits of float32 +inf


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel metric depth; 0.0 encodes an invalid pixel."""

    width: int
    height: int
    values: np.ndarray  # (height, width) float32

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float32)
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("DepthMap: non-positive dimensions")
        if arr.shape != (self.height, self.width):
            raise ValidationError(
                f"DepthMap: payload shape {arr.shape} does not match "
                f"{self.height}x{self.width}"
            )
        # As unsigned bits, exactly the finite floats >= +0.0 lie below +inf's
        # pattern, so one reduction accepts a valid raster.  Anything else
        # (NaN, +-inf, a negative value, or -0.0, which is valid) goes to the
        # full scan, which names the first bad pixel.
        if arr.view(np.uint32).max() >= _FLOAT32_INF_BITS:
            if not np.all(np.isfinite(arr)):
                bad = int(np.flatnonzero(~np.isfinite(arr.reshape(-1)))[0])
                raise ValidationError(f"DepthMap: non-finite value at pixel {bad}")
            if np.any(arr < 0.0):
                bad = int(np.flatnonzero(arr.reshape(-1) < 0.0)[0])
                raise ValidationError(f"DepthMap: negative depth at pixel {bad}")
        object.__setattr__(self, "values", arr)


# ---------------------------------------------------------------------------
# Depth raster IO
# ---------------------------------------------------------------------------

def load_depth(path: str | Path) -> DepthMap:
    path = Path(path)
    with open(path, "rb") as f:
        header = f.readline()
        try:
            magic, w_s, h_s = header.decode("ascii").split()
            width, height = int(w_s), int(h_s)
        except (UnicodeDecodeError, ValueError):
            raise ParseError(f"{path}: bad depth header {header!r}") from None
        if magic != DEPTH_MAGIC:
            raise ParseError(f"{path}: expected magic {DEPTH_MAGIC!r}, got {magic!r}")
        if width <= 0 or height <= 0:
            raise ParseError(f"{path}: non-positive dimensions {width}x{height}")
        expected = width * height * 4
        # Size the payload before allocating, so a huge declared raster is
        # a ParseError and not a MemoryError, then read it straight into a
        # fresh array; a short read means the file shrank in between.
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size == expected:
            values = np.empty((height, width), dtype="<f4")
            size = f.readinto(values)
    if size != expected:
        raise ParseError(
            f"{path}: payload is {size} bytes, expected {expected} "
            f"for {width}x{height}"
        )
    values.flags.writeable = False
    return DepthMap(width=width, height=height, values=values)


def write_depth(path: str | Path, depth: DepthMap) -> None:
    with open(path, "wb") as f:
        f.write(f"{DEPTH_MAGIC} {depth.width} {depth.height}\n".encode("ascii"))
        f.write(depth.values.astype("<f4", copy=False).tobytes())


# ---------------------------------------------------------------------------
# Detections file
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameDetections:
    frame_index: int
    detections: tuple[Detection, ...]


def _runs_array(runs: Any, path: Path, lineno: int) -> np.ndarray:
    """A mask's ``runs`` from line ``lineno`` as an (n, 2) int64 array: a
    ValueError when a run is not a [start, length] pair, a ParseError
    naming the first value that is not a JSON integer."""
    if not set(map(len, runs)) <= {2}:
        raise ValueError("a mask run is not a [start, length] pair")
    values = list(itertools.chain.from_iterable(runs))
    if not set(map(type, values)) <= {int}:  # name the first non-integer
        for i, value in enumerate(values):
            json_int(value, f"runs[{i // 2}][{i % 2}]", path, lineno)
    return np.fromiter(values, dtype=np.int64, count=len(values)).reshape(-1, 2)


def _detection_from_obj(obj: dict, skeleton_id: str, path: Path, lineno: int) -> Detection:
    box = Box2D(*(float(v) for v in obj["box"]))
    m = obj["mask"]
    runs = _runs_array(m["runs"], path, lineno)
    mask = Mask2D(width=json_int(m["w"], "w", path, lineno),
                  height=json_int(m["h"], "h", path, lineno), runs=runs)
    kps = Keypoints2D(np.asarray(obj["keypoints"], dtype=np.float64), skeleton_id)
    return Detection(json_int(obj["frame"], "frame", path, lineno),
                     box.clamp(mask.width, mask.height), mask, kps, float(obj["score"]))


# Frames of up to this many pixels a side, whose pixel bounds stay exact in
# float64 and pixel counts in int64, are read in bulk; larger ones one by one.
_BULK_SIDE = 2**31
# Runs per checked batch: the checks' temporaries, about 100 bytes a run,
# stay near 2 MB however long the file.
_BATCH_RUNS = 2**14


def _detection_batch(batch: list[tuple], skel: Skeleton) -> list[tuple] | None:
    """(frame, -score, line, Detection) records for a batch of lines reduced
    by ``_detections_in_bulk``, each rule checked once over the batch's
    arrays and the objects built unchecked; None when a check fails."""
    lines, frames, scores, widths, heights, boxes, runs, keypoints = zip(*batch)
    n, sides, counts = len(lines), widths + heights, np.array([len(r) for r in runs])
    box, kps = np.array(boxes), np.array(keypoints)
    if not (set(map(type, frames + sides)) <= {int} and box.shape == (n, 4) and counts.all()
            and kps.shape == (n, skel.joint_count, 3) and min(frames) >= 0
            and 0 < min(sides) and max(sides) < _BULK_SIDE):
        return None
    dims = np.array([widths, heights]).T
    # Box2D._clamped: x to min(max(x, 0.0), w - 1.0).  Clamping keeps order,
    # so a box that is not x_min < x_max, y_min < y_max is empty clamped.
    top = np.tile(dims - 1.0, 2)
    clamped = np.where(0.0 > box, 0.0, box)
    clamped = np.where(top < clamped, top, clamped)
    bounds = np.hstack((np.ceil(clamped[:, :2]), np.floor(clamped[:, 2:]))).astype(np.int64)
    owner = np.repeat(np.arange(n), counts)
    starts, lengths = np.concatenate(runs).T
    prev_end = np.empty_like(starts)  # each run's predecessor's end, exact up to a bad run
    prev_end[1:] = starts[:-1] + lengths[:-1]
    prev_end[np.cumsum(counts) - counts] = -1
    conf, score = kps[:, :, 2], np.array(scores)
    if not ((clamped[:, :2] < clamped[:, 2:]).all()
            and np.isfinite(kps).all() and ((conf >= 0.0) & (conf <= 1.0)).all()
            and ((score >= 0.0) & (score <= 1.0)).all()
            and not _bad_run(starts, lengths, prev_end, dims.prod(axis=1)[owner]).any()
            and np.bincount(owner[_run_meets_box(starts, lengths, *bounds[owner].T,
                                                 dims[owner, 0])], minlength=n).all()):
        return None
    records = []
    for row in zip(lines, frames, scores, clamped.tolist(), widths, heights, runs, keypoints):
        lineno, frame, score, xyxy, width, height, run, joints = row
        run.flags.writeable = False
        det = _unchecked(Detection, frame, _unchecked(Box2D, *xyxy),
                         _unchecked(Mask2D, width, height, run),
                         _unchecked(Keypoints2D, joints, skel.name), score)
        records.append((frame, -score, lineno, det))
    return records


def _detections_in_bulk(path: Path, skeleton_id: str) -> list[tuple] | None:
    """Every detection of ``path`` as a (frame, -score, line, Detection)
    record, checked and built by ``_detection_batch`` one batch of lines at
    a time; None when a line does not reduce to arrays or a check fails.

    Each line is reduced to arrays and scalars as soon as it is decoded:
    kept alive, the decoded lines' many small lists would be scanned over
    and over by the cyclic garbage collector."""
    records, batch, pending = [], [], 0
    try:
        skel = get_skeleton(skeleton_id)
        for lineno, obj in json_lines(path):
            mask = obj["mask"]
            runs = _runs_array(mask["runs"], path, lineno)
            batch.append((lineno, obj["frame"], float(obj["score"]), mask["w"], mask["h"],
                          tuple(map(float, obj["box"])), runs,
                          np.asarray(obj["keypoints"], dtype=np.float64)))
            pending += len(runs)
            if pending >= _BATCH_RUNS:
                checked, batch, pending = _detection_batch(batch, skel), [], 0
                if checked is None:
                    return None
                records += checked
        checked = _detection_batch(batch, skel) if batch else []
    except (PoseTrackError, KeyError, TypeError, ValueError, OverflowError):
        return None
    return None if checked is None else records + checked


def parse_detections(path: str | Path, skeleton_id: str = BASIC15.name) -> list[FrameDetections]:
    """Parse a JSON-lines detections file, grouped and sorted by frame.

    Within a frame, detections are ordered by descending score with input
    order as the stable tiebreak.  ``frame``, ``w``, ``h`` and every mask
    run value must be JSON integers.  The file is checked once at the
    boundary, each rule over a whole batch of its detections at once, and
    its objects are built unchecked inside.  When a check fails, the file
    is read again one detection at a time, so the error names the first bad
    line's fault.
    """
    path = Path(path)
    records = _detections_in_bulk(path, skeleton_id)
    if records is None:
        records = []
        for lineno, obj in json_lines(path):
            try:
                det = _detection_from_obj(obj, skeleton_id, path, lineno)
            except (KeyError, TypeError, ValueError) as e:
                raise ParseError(f"{path}: missing or malformed field ({e})",
                                 line=lineno) from None
            except OverflowError as e:
                raise ValidationError(f"{path}: line {lineno}: value out of range ({e})") from None
            except ValidationError as e:
                raise ValidationError(f"{path}: line {lineno}: {e}") from None
            records.append((det.frame_index, -det.score, lineno, det))
    records.sort(key=lambda r: r[:3])
    grouped: dict[int, list[Detection]] = {}
    for frame_index, _, _, det in records:
        grouped.setdefault(frame_index, []).append(det)
    return [FrameDetections(index, tuple(dets)) for index, dets in grouped.items()]


def write_detections(path: str | Path, detections: list[Detection]) -> None:
    with open(path, "wb") as f:
        for det in detections:
            f.write(encode({"frame": det.frame_index, "box": list(det.box.as_tuple()), "mask": {
                "w": det.mask.width, "h": det.mask.height, "runs": det.mask.runs},
                "keypoints": det.keypoints.joints, "score": det.score}) + b"\n")


# ---------------------------------------------------------------------------
# Sequence assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameInput:
    frame_index: int
    detections: tuple[Detection, ...]
    depth: DepthMap | Path

    def load(self) -> DepthMap:
        return self.depth if isinstance(self.depth, DepthMap) else load_depth(self.depth)


@dataclass(frozen=True)
class SequenceInput:
    frames: tuple[FrameInput, ...]
    camera: CameraModel
    fps: float = 30.0

    def __post_init__(self):
        last = -1
        for fr in self.frames:
            if fr.frame_index <= last:
                raise ValidationError("SequenceInput: frame_index not strictly increasing")
            last = fr.frame_index


def load_sequence(
    detections_path: str | Path,
    depth_dir: str | Path,
    camera: CameraModel,
    fps: float = 30.0,
    skeleton_id: str = BASIC15.name,
) -> SequenceInput:
    """Join a detections file with its per-frame depth rasters.

    The depth directory defines the frame set (one ``<frame>.dpt`` per video
    frame, ``<frame>`` in ASCII digits); frames without detections stay in
    the sequence so the tracker sees them as misses.  A detection whose frame
    has no raster is an error (it names the first line with that frame), as
    is a name ``int()`` reads as a number but that is not plain digits.
    Other names are skipped.
    """
    depth_dir = Path(depth_dir)
    by_frame = {fd.frame_index: fd.detections
                for fd in parse_detections(detections_path, skeleton_id=skeleton_id)}
    depth_frames: dict[int, Path] = {}
    for path in depth_dir.glob("*.dpt"):
        try:
            index = int(path.stem)
        except ValueError:
            continue
        if index < 0:
            raise ValidationError(f"{path}: negative frame index {index}")
        if not (path.stem.isascii() and path.stem.isdigit()):
            raise ValidationError(f"{path}: frame name {path.stem!r} is not plain digits")
        if index in depth_frames:
            first, second = sorted((depth_frames[index], path))
            raise ValidationError(f"frame {index}: two depth rasters, {first} and {second}")
        depth_frames[index] = path
    missing = sorted(set(by_frame) - set(depth_frames))
    if missing:
        # The file is valid by now, so every line has an integer frame.
        line = next(lineno for lineno, obj in json_lines(Path(detections_path))
                    if obj["frame"] == missing[0])
        raise ValidationError(
            f"{detections_path}: line {line}: frame {missing[0]}: missing depth raster "
            f"{depth_dir / f'{missing[0]}.dpt'}"
        )
    frames = [
        FrameInput(index, by_frame.get(index, ()), depth=path)
        for index, path in sorted(depth_frames.items())
    ]
    return SequenceInput(frames=tuple(frames), camera=camera, fps=fps)


# ---------------------------------------------------------------------------
# Engine configuration
# ---------------------------------------------------------------------------

MAX_PATCH = 101  # the lifter gathers patch**2 depths per live joint


def check_patch(patch: int, prefix: str = "") -> None:
    """A pose-lifting window size must be an odd int >= 1 and at most
    ``MAX_PATCH``; a bool is not an int.  ``prefix`` leads the error message."""
    if type(patch) is not int or patch < 1 or patch % 2 == 0:
        raise ValidationError(f"{prefix}patch must be an odd int >= 1, got {patch!r}")
    if patch > MAX_PATCH:
        raise ValidationError(f"{prefix}patch must be at most {MAX_PATCH}, got {patch}")


@dataclass(frozen=True)
class LiftingConfig:
    min_thickness: float = 0.2
    depth_percentile: float = 1.0
    patch: int = 5  # the pose lifter's window size (``pose3d.lift_poses``)

    def __post_init__(self):
        check_numbers(self)
        if not (math.isfinite(self.min_thickness) and self.min_thickness > 0.0):
            raise ValidationError("LiftingConfig: min_thickness must be finite and > 0")
        if not (0.0 <= self.depth_percentile < 50.0):
            raise ValidationError("LiftingConfig: depth_percentile must be in [0, 50)")
        check_patch(self.patch, "LiftingConfig: ")


@dataclass(frozen=True)
class TrackerConfig:
    iou_gate: float = 0.3
    max_gap: int = 10
    predictor_window: int = 5
    association_mode: str = "iou3d"
    min_track_score: float = 0.0

    def __post_init__(self):
        check_numbers(self)
        if not (0.0 <= self.iou_gate <= 1.0):
            raise ValidationError("TrackerConfig: iou_gate outside [0, 1]")
        # type() rather than isinstance(): a bool (JSON true) is not a count.
        if type(self.max_gap) is not int or self.max_gap < 0:
            raise ValidationError("TrackerConfig: max_gap must be an int >= 0")
        if type(self.predictor_window) is not int or self.predictor_window < 1:
            raise ValidationError("TrackerConfig: predictor_window must be an int >= 1")
        if self.association_mode not in ("iou3d", "iou2d"):
            raise ValidationError(
                f"TrackerConfig: unknown association_mode {self.association_mode!r}"
            )
        if not (0.0 <= self.min_track_score <= 1.0):
            raise ValidationError("TrackerConfig: min_track_score outside [0, 1]")


@dataclass(frozen=True)
class EngineConfig:
    camera: CameraModel
    fps: float = 30.0
    skeleton_id: str = BASIC15.name
    lifting: LiftingConfig = field(default_factory=LiftingConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)

    def __post_init__(self):
        check_numbers(self, to_float=True)
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValidationError("EngineConfig: fps must be finite and > 0")


def config_from_dict(obj: dict) -> EngineConfig:
    if "camera" not in obj:
        raise ValidationError("config: missing required 'camera' section")
    cfg = EngineConfig(
        camera=CameraModel(**obj["camera"]),
        fps=obj.get("fps", 30.0),
        skeleton_id=obj.get("skeleton", BASIC15.name),
        lifting=LiftingConfig(**obj.get("lifting", {})),
        tracker=TrackerConfig(**obj.get("tracker", {})),
    )
    sections = config_to_dict(cfg)
    unknown = [name for name in obj if name not in sections]
    if unknown:
        raise ValidationError(f"config: unknown section {unknown[0]!r}")
    return cfg


def config_to_dict(cfg: EngineConfig) -> dict:
    return {"skeleton" if name == "skeleton_id" else name: value
            for name, value in asdict(cfg).items()}


def load_config(path: str | Path) -> EngineConfig:
    path = Path(path)
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    try:
        return config_from_dict(obj)
    except (TypeError, ValueError, OverflowError, ValidationError) as e:
        raise ValidationError(f"{path}: {e}") from None


def write_config(path: str | Path, cfg: EngineConfig) -> None:
    Path(path).write_bytes(encode(config_to_dict(cfg), indent=True) + b"\n")
