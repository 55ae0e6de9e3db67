"""2D keypoint lifting to world-frame 3D poses.

The lifter samples the depth map around each joint pixel instead of
regressing root-relative offsets, so every output coordinate is traceable to
input pixels.  It reads its windows straight from the frame's depth raster
and the mask's runs; the only per-detection state it shares with
:func:`~pose3dtrack.geometry.lift_box` is the person's depth span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError, ValidationError
from .geometry import depth_extrema
from .ingest import Box2D, CameraModel, Detection, DepthMap, Mask2D, get_skeleton

# Unused here; kept so per-layer tracing can still patch this name on pose3d.
from .ingest import mask_indices  # noqa: F401


@dataclass(frozen=True)
class Pose3D:
    """World-frame joints (X, Y, Z, confidence) with a designated root."""

    joints: np.ndarray  # (J, 4) float64
    root_index: int
    skeleton_id: str

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


def _window_medians(
    depth: DepthMap,
    mask: Mask2D,
    box: Box2D,
    extrema: tuple[float, float],
    u: np.ndarray,
    v: np.ndarray,
    patch: int,
) -> np.ndarray:
    """Per-joint median valid depth over the patch window around the rounded
    pixel (u[k], v[k]): mask pass, then depth-band box pass; NaN where
    neither window holds a valid sample.

    The windows are gathered from the whole frame.  A pixel is on the mask
    when it lies before the end of the last run starting at or before it.
    The box pass keeps only samples inside [z_min, z_max], which keeps an
    overlapping person's surface from leaking into this person's joints.
    """
    h, w = depth.values.shape
    offsets = np.arange(-(patch // 2), patch // 2 + 1)
    rows, in_rows = _window_axis(v, h, offsets)
    cols, in_cols = _window_axis(u, w, offsets)
    win_r, win_c = rows[:, :, None], cols[:, None, :]  # (joints, patch, 1), (joints, 1, patch)
    vals = depth.values[win_r, win_c].reshape(u.size, -1)
    valid = (in_rows[:, :, None] & in_cols[:, None, :]).reshape(u.size, -1)
    valid &= vals > 0.0
    pixel = (win_r * w + win_c).reshape(u.size, -1)
    starts = mask.runs[:, 0]
    run = np.searchsorted(starts, pixel, side="right") - 1  # last run starting at or before
    on_mask = (run >= 0) & (pixel < (starts + mask.runs[:, 1])[run])
    z = _medians(vals, valid & on_mask)
    missing = np.isnan(z)
    if missing.any():
        c0, c1, r0, r1 = box.pixel_bounds(w, h)
        in_box = (((rows >= r0) & (rows <= r1))[:, :, None]
                  & ((cols >= c0) & (cols <= c1))[:, None, :])
        z_min, z_max = extrema
        wide = vals.astype(np.float64)  # the band is compared in float64
        valid &= in_box.reshape(u.size, -1)
        valid &= wide >= z_min
        valid &= wide <= z_max
        z[missing] = _medians(vals, valid)[missing]
    return z


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


def lift_pose(
    det: Detection,
    depth: DepthMap,
    cam: CameraModel,
    patch: int = 5,
    percentile: float = 0.0,
    extrema: tuple[float, float] | None = None,
) -> Pose3D:
    """Lift one detection's 2D keypoints into world coordinates.

    Per joint with confidence > 0, Z is the median valid depth over the
    patch window intersected with the person's mask, falling back to the
    window intersected with the box (restricted to the person's measured
    depth band), then to the person's mid depth.  X and Y follow from the
    pinhole model at that Z.  Joints with confidence 0 inherit the root's
    coordinates so pose arity stays fixed.  Precomputed ``extrema`` (from
    :func:`~pose3dtrack.geometry.depth_extrema` with the same percentile)
    skip measuring the depth span again.
    """
    if patch < 1 or patch % 2 == 0:
        raise ValidationError(f"patch must be odd and >= 1, got {patch}")
    skel = get_skeleton(det.keypoints.skeleton_id)
    kps = det.keypoints.joints
    if kps[skel.root_index, 2] <= 0.0:
        raise EmptySupportError("root joint has zero confidence; cannot place pose")
    if extrema is None:
        extrema = depth_extrema(depth, det.mask, det.box, percentile=percentile)

    live = kps[:, 2] > 0.0
    u, v, conf = kps[live].T
    z = _window_medians(depth, det.mask, det.box, extrema, u, v, patch)
    z[np.isnan(z)] = (extrema[0] + extrema[1]) / 2.0
    x, y = cam.back_project(u, v, z)

    joints = np.empty((skel.joint_count, 4), dtype=np.float64)
    joints[live] = np.column_stack((x, y, z, conf))
    joints[~live, :3] = joints[skel.root_index, :3]
    joints[~live, 3] = 0.0
    return Pose3D(joints=joints, root_index=skel.root_index, skeleton_id=skel.name)
