"""2D keypoint lifting to world-frame 3D poses.

The lifter samples the depth map around each joint pixel instead of
regressing root-relative offsets, so every output coordinate is traceable to
input pixels.  :func:`lift_poses` lifts a whole frame's detections in one
pass from their depth spans (the only state it shares with
:func:`~pose3dtrack.geometry.lift_box`), reading the windows straight from
the frame's depth raster and the masks' runs.  :func:`lift_pose` lifts one
detection as ``tracking.lift_frame`` does: span first, then the frame kernel.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import EmptySupportError, ValidationError
from .geometry import check_mask_frame, depth_extrema
from .ingest import (CameraModel, Detection, DepthMap, LiftingConfig, Skeleton, check_patch,
                     get_skeleton, values_equal, values_hash)

# Unused here; kept so per-layer tracing can still patch this name on pose3d.
from .ingest import mask_indices  # noqa: F401


@dataclass(frozen=True, slots=True, eq=False)
class Pose3D:
    """World-frame joints (X, Y, Z, confidence) with a designated root."""

    joints: np.ndarray  # (J, 4) float64
    root_index: int
    skeleton_id: str

    __eq__, __hash__ = values_equal, values_hash

    def __post_init__(self):
        arr = np.asarray(self.joints, dtype=np.float64)
        object.__setattr__(self, "joints", arr)
        skel = get_skeleton(self.skeleton_id)
        if arr.shape != (skel.joint_count, 4):
            raise ValidationError(
                f"Pose3D: expected {skel.joint_count}x4 joints for "
                f"{self.skeleton_id!r}, got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("Pose3D: non-finite joint value")
        if not (0 <= self.root_index < skel.joint_count):
            raise ValidationError(f"Pose3D: root_index {self.root_index} out of range")

    @property
    def root(self) -> np.ndarray:
        return self.joints[self.root_index, :3]


def _window_axis(
    center: np.ndarray,
    size: int,
    offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Frame indices of each window along one axis, clamped into [0, size)
    for gathering, and whether each index lay inside before clamping.

    The indices stay float until clamped, so far-off keypoints cannot leave
    the int64 range.
    """
    window = np.rint(center)[:, None] + offsets
    clamped = np.maximum(window, 0.0)
    np.minimum(clamped, size - 1, out=clamped)
    return clamped.astype(np.int64), clamped == window


def _medians(vals: np.ndarray, picked: np.ndarray) -> np.ndarray:
    """Row-wise median of vals[picked] as float64 (the mean of the two middle
    order statistics, as np.median), NaN for rows with nothing picked."""
    n = picked.sum(axis=1)
    ordered = np.where(picked, vals, np.inf)
    ordered.sort(axis=1)
    k = np.arange(n.size)
    lo = ordered[k, np.maximum(n - 1, 0) // 2].astype(np.float64)
    return np.where(n > 0, (lo + ordered[k, n // 2]) / 2.0, np.nan)


def require_root(det: Detection) -> Skeleton:
    """The detection's skeleton; EmptySupportError when its root joint has
    zero confidence, since the pose then has nowhere to stand."""
    skel = get_skeleton(det.keypoints.skeleton_id)
    if det.keypoints.joints[skel.root_index, 2] <= 0.0:
        raise EmptySupportError("root joint has zero confidence; cannot place pose")
    return skel


def lift_poses(
    dets: Sequence[Detection],
    depth: DepthMap,
    cam: CameraModel,
    patch: int,
    extrema: Sequence[tuple[float, float]],
) -> list[Pose3D]:
    """Lift one frame's detections into world coordinates in one pass.

    Per joint with confidence > 0, Z is the median valid depth over the
    patch window on the person's mask, falling back to the window inside the
    box and the depth band ``extrema[i]`` (which keeps an overlapping
    person's surface out), then to the mid depth; X and Y follow from the
    pinhole model at that Z.  Joints with confidence 0 take the root's
    coordinates.  Checks :func:`~pose3dtrack.ingest.check_patch` and that
    ``extrema`` holds one span per detection, then per detection
    :func:`~pose3dtrack.geometry.check_mask_frame` and :func:`require_root`.

    Mask membership is one ``searchsorted`` over all detections' run starts,
    detection i's runs and window pixels offset by i*H*W: a pixel is on its
    mask when the last run starting at or before it reaches it, and every
    run of an earlier detection ends by i*H*W.
    """
    check_patch(patch)
    if len(extrema) != len(dets):
        raise ValidationError(f"{len(extrema)} depth spans for {len(dets)} detections")
    if not dets:
        return []
    skels = []
    for det in dets:
        check_mask_frame(det.mask, depth)
        skels.append(require_root(det))
    counts = [skel.joint_count for skel in skels]
    kps = np.concatenate([det.keypoints.joints for det in dets])
    owner = np.repeat(np.arange(len(dets)), counts)
    live = kps[:, 2] > 0.0
    u, v, conf = kps[live].T
    who = owner[live]
    spans = np.array(extrema, dtype=np.float64)  # (detections, 2)

    h, w = depth.values.shape
    offsets = np.arange(-(patch // 2), patch // 2 + 1)
    rows, in_rows = _window_axis(v, h, offsets)
    cols, in_cols = _window_axis(u, w, offsets)
    pixel = (rows[:, :, None] * w + cols[:, None, :]).reshape(u.size, -1)
    vals = depth.values.take(pixel)
    valid = (in_rows[:, :, None] & in_cols[:, None, :]).reshape(u.size, -1)
    valid &= vals > 0.0
    frame = h * w
    runs = np.concatenate([det.mask.runs for det in dets])
    starts = runs[:, 0] + np.repeat(np.arange(len(dets)) * frame,
                                    [len(det.mask.runs) for det in dets])
    pixel += (who * frame)[:, None]  # each joint's pixels into its detection's slot
    run = np.searchsorted(starts, pixel, side="right") - 1  # last run starting at or before
    on_mask = (run >= 0) & (pixel < (starts + runs[:, 1])[run])
    z = _medians(vals, valid & on_mask)

    missing = np.flatnonzero(np.isnan(z))
    if missing.size:
        owners = who[missing]
        bounds = np.array([det.box.pixel_bounds(w, h) for det in dets])
        c0, c1, r0, r1 = bounds[owners].T[:, :, None]  # each (missing, 1)
        r, c = rows[missing], cols[missing]
        in_box = ((r >= r0) & (r <= r1))[:, :, None] & ((c >= c0) & (c <= c1))[:, None, :]
        z_min, z_max = spans[owners].T[:, :, None]
        vals = vals[missing]
        wide = vals.astype(np.float64)  # the band is compared in float64
        picked = valid[missing] & in_box.reshape(missing.size, -1)
        picked &= wide >= z_min
        picked &= wide <= z_max
        z[missing] = _medians(vals, picked)
    fill = np.isnan(z)
    z[fill] = ((spans[:, 0] + spans[:, 1]) / 2.0)[who[fill]]
    with np.errstate(over="ignore"):  # past the float range is inf, which Pose3D rejects
        x, y = cam.back_project(u, v, z)

    joints = np.empty((kps.shape[0], 4), dtype=np.float64)
    joints[live] = np.column_stack((x, y, z, conf))
    first = list(accumulate(counts, initial=0))  # each detection's first joint row
    roots = np.array([a + skel.root_index for a, skel in zip(first, skels)])
    dead = ~live
    joints[dead, :3] = joints[roots[owner[dead]], :3]
    joints[dead, 3] = 0.0
    return [Pose3D(joints=joints[a:b], root_index=skel.root_index, skeleton_id=skel.name)
            for a, b, skel in zip(first, first[1:], skels)]


def lift_pose(
    det: Detection,
    depth: DepthMap,
    cam: CameraModel,
    patch: int = LiftingConfig.patch,
    percentile: float = LiftingConfig.depth_percentile,
) -> Pose3D:
    """Lift one detection's 2D keypoints as ``tracking.lift_frame`` does:
    measure its depth span with :func:`~pose3dtrack.geometry.depth_extrema`,
    then run :func:`lift_poses` on it alone, so the span's faults come first.
    The defaults are ``LiftingConfig``'s."""
    extrema = depth_extrema(depth, det.mask, det.box, percentile=percentile)
    return lift_poses([det], depth, cam, patch, [extrema])[0]
