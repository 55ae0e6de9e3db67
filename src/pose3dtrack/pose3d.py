"""2D keypoint lifting to world-frame 3D poses.

The baseline lifter samples the depth map around each joint pixel instead of
regressing root-relative offsets, so every output coordinate is traceable to
input pixels.  Learned lifters can be registered under a ``LifterSpec`` name
and slot in behind the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .errors import EmptySupportError, ValidationError
from .geometry import Support, depth_support
from .ingest import CameraModel, Detection, DepthMap, LifterSpec, LiftingConfig, get_skeleton

# Unused here; kept so per-layer tracing can still patch these names on pose3d.
from .geometry import depth_extrema  # noqa: F401
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


class Lifter(Protocol):
    def __call__(self, det: Detection, depth: DepthMap, cam: CameraModel,
                 support: Support | None = None) -> Pose3D: ...


def _window_medians(
    support: Support,
    u: np.ndarray,
    v: np.ndarray,
    patch: int,
) -> np.ndarray:
    """Per-joint median valid depth over the patch window around the rounded
    pixel (u[k], v[k]): mask pass, then depth-band box pass; NaN where
    neither window holds a valid sample.

    The box pass keeps only samples inside [z_min, z_max], which keeps an
    overlapping person's surface from leaking into this person's joints.
    """
    h, w = support.depth.shape
    offsets = np.arange(-(patch // 2), patch // 2 + 1)
    rows, in_rows = _window_axis(v, support.row0, h, offsets)
    cols, in_cols = _window_axis(u, support.col0, w, offsets)
    win_r, win_c = rows[:, :, None], cols[:, None, :]  # (joints, patch, 1), (joints, 1, patch)
    vals = support.depth[win_r, win_c].reshape(u.size, -1)
    valid = (in_rows[:, :, None] & in_cols[:, None, :]).reshape(u.size, -1)
    valid &= vals > 0.0
    z = _medians(vals, valid & support.mask[win_r, win_c].reshape(u.size, -1))
    missing = np.isnan(z)
    if missing.any():
        wide = vals.astype(np.float64)  # the band is compared in float64
        valid &= support.box[win_r, win_c].reshape(u.size, -1)
        valid &= wide >= support.z_min
        valid &= wide <= support.z_max
        z[missing] = _medians(vals, valid)[missing]
    return z


def _window_axis(
    center: np.ndarray,
    origin: int,
    size: int,
    offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Crop indices of each window along one axis, clamped into [0, size)
    for gathering, and whether each index lay inside before clamping.

    The indices stay float until clamped, so far-off keypoints cannot leave
    the int64 range.
    """
    window = (np.rint(center) - origin)[:, None] + offsets
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
    support: Support | None = None,
) -> Pose3D:
    """Lift one detection's 2D keypoints into world coordinates.

    Per joint with confidence > 0, Z is the median valid depth over the
    patch window intersected with the person's mask, falling back to the
    window intersected with the box (restricted to the person's measured
    depth band), then to the person's mid depth.  X and Y follow from the
    pinhole model at that Z.  Joints with confidence 0 inherit the root's
    coordinates so pose arity stays fixed.  A prebuilt ``support`` (from
    :func:`~pose3dtrack.geometry.depth_support` with the same percentile)
    skips rebuilding it.
    """
    if patch < 1 or patch % 2 == 0:
        raise ValidationError(f"patch must be odd and >= 1, got {patch}")
    skel = get_skeleton(det.keypoints.skeleton_id)
    kps = det.keypoints.joints
    if kps[skel.root_index, 2] <= 0.0:
        raise EmptySupportError("root joint has zero confidence; cannot place pose")
    if support is None:
        support = depth_support(depth, det.mask, det.box, percentile=percentile)

    live = kps[:, 2] > 0.0
    u, v, conf = kps[live].T
    z = _window_medians(support, u, v, patch)
    z[np.isnan(z)] = support.z_mid
    x, y = cam.back_project(u, v, z)

    joints = np.empty((skel.joint_count, 4), dtype=np.float64)
    joints[live] = np.column_stack((x, y, z, conf))
    joints[~live, :3] = joints[skel.root_index, :3]
    joints[~live, 3] = 0.0
    return Pose3D(joints=joints, root_index=skel.root_index, skeleton_id=skel.name)


# ---------------------------------------------------------------------------
# Lifter registry
# ---------------------------------------------------------------------------

LifterFactory = Callable[[dict, LiftingConfig], Lifter]
_LIFTERS: dict[str, LifterFactory] = {}


def register_lifter(name: str, factory: LifterFactory) -> None:
    _LIFTERS[name] = factory


def make_lifter(spec: LifterSpec, lifting: LiftingConfig) -> Lifter:
    try:
        factory = _LIFTERS[spec.name]
    except KeyError:
        raise ValidationError(f"unknown lifter {spec.name!r}") from None
    return factory(spec.parameters, lifting)


def _depth_median_factory(params: dict, lifting: LiftingConfig) -> Lifter:
    patch = params.get("patch", 5)
    if type(patch) is not int or patch < 1 or patch % 2 == 0:  # bool is not int here
        raise ValidationError(
            f"lifter 'depth_median': patch must be an odd int >= 1, got {patch!r}")

    def lifter(det: Detection, depth: DepthMap, cam: CameraModel,
               support: Support | None = None) -> Pose3D:
        return lift_pose(det, depth, cam, patch=patch,
                         percentile=lifting.depth_percentile, support=support)

    return lifter


register_lifter("depth_median", _depth_median_factory)
