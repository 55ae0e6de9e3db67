"""Depth-based 2D-to-3D box lifting and axis-aligned IOU measures."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError, ValidationError
from .ingest import (Box2D, CameraModel, DepthMap, LiftingConfig, Mask2D, check_percentile,
                     mask_indices)


@dataclass(frozen=True, slots=True)
class Box3D:
    """Axis-aligned 3D box in meters; z grows away from the camera."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        if not (-math.inf < self.x_min < self.x_max < math.inf
                and -math.inf < self.y_min < self.y_max < math.inf
                and -math.inf < self.z_min < self.z_max < math.inf):
            degenerate = not (self.x_min < self.x_max and self.y_min < self.y_max
                              and self.z_min < self.z_max)
            raise ValidationError(
                f"Box3D: {'degenerate' if degenerate else 'infinite'} extents "
                f"x[{self.x_min}, {self.x_max}] "
                f"y[{self.y_min}, {self.y_max}] z[{self.z_min}, {self.z_max}]"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.x_min, self.x_max, self.y_min,
                         self.y_max, self.z_min, self.z_max], dtype=np.float64)

    @staticmethod
    def from_array(arr) -> "Box3D":
        x0, x1, y0, y1, z0, z1 = (float(v) for v in arr)
        return Box3D(x0, x1, y0, y1, z0, z1)


def _linear_percentile(ordered: np.ndarray, q: float) -> float:
    """NumPy's ``"linear"`` quantile q of an ascending array, bit for bit."""
    n = ordered.size
    index = (n - 1) * q
    if index >= n - 1:
        return float(ordered[-1])
    k = math.floor(index)
    t = index - k
    a, b = float(ordered[k]), float(ordered[k + 1])
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1 - t)


def clipped_extrema(vals: np.ndarray, percentile: float) -> tuple[float, float]:
    """(min, max) of a non-empty array, or for percentile p > 0 its p-th and
    (100-p)-th percentiles, equal to ``np.percentile(vals.astype(np.float64),
    (p, 100 - p))``.  Sorts ``vals`` in place when p > 0."""
    if percentile <= 0.0:
        return float(vals.min()), float(vals.max())
    vals.sort()
    return (_linear_percentile(vals, percentile / 100),
            _linear_percentile(vals, (100.0 - percentile) / 100))


def check_mask_frame(mask: Mask2D, depth: DepthMap) -> None:
    """A mask must cover the depth raster's frame, size for size."""
    if (mask.width, mask.height) != (depth.width, depth.height):
        raise ValidationError(
            f"mask is {mask.width}x{mask.height} but depth is "
            f"{depth.width}x{depth.height}"
        )


def depth_extrema(
    depth: DepthMap,
    mask: Mask2D,
    box: Box2D,
    percentile: float = 0.0,
) -> tuple[float, float]:
    """Near/far depth (z_min, z_max) over the valid pixels of mask ∩ box.

    With percentile p > 0 the p-th and (100-p)-th percentiles are used
    instead of the absolute extrema, which keeps single outlier pixels from
    inflating the person's depth span.  The whole mask is decoded, only the
    indices on the box's rows are scattered into a band, and only the box's
    depths are read.  Checks :func:`~pose3dtrack.ingest.check_percentile`.
    """
    check_percentile(percentile)
    check_mask_frame(mask, depth)
    w = depth.width
    c0, c1, r0, r1 = box.pixel_bounds(w, depth.height)
    idx = mask_indices(mask)
    lo, hi = np.searchsorted(idx, (r0 * w, (r1 + 1) * w))
    band = np.zeros((max(r1 - r0 + 1, 0), w), dtype=bool)  # mask on the box rows
    band.reshape(-1)[idx[lo:hi] - r0 * w] = True
    vals = depth.values[r0:r1 + 1, c0:c1 + 1][band[:, c0:c1 + 1]]
    vals = vals[vals > 0.0]
    if vals.size == 0:
        raise EmptySupportError("no valid depth pixel inside mask ∩ box")
    return clipped_extrema(vals, percentile)


def lift_box(box: Box2D, extrema: tuple[float, float], cam: CameraModel,
             min_thickness: float = LiftingConfig.min_thickness) -> Box3D:
    """Lift a 2D person box to a 3D box from its depth span ``extrema``.

    Lifting is two steps: :func:`depth_extrema` measures the span
    (z_min, z_max) over mask ∩ box, then this back-projects the 2D corners
    at the representative depth z_mid = (z_min + z_max) / 2 for the x/y
    extents; the z extent is the span, widened evenly to at least min_thickness.
    """
    z_min, z_max = extrema
    z_mid = (z_min + z_max) / 2.0
    xa, ya = cam.back_project(box.x_min, box.y_min, z_mid)
    xb, yb = cam.back_project(box.x_max, box.y_max, z_mid)
    if z_max - z_min < min_thickness:
        half = min_thickness / 2.0
        z_min, z_max = z_mid - half, z_mid + half
    return Box3D(min(xa, xb), max(xa, xb), min(ya, yb), max(ya, yb), z_min, z_max)


def iou3d(a: Box3D, b: Box3D) -> float:
    """Volume intersection-over-union of two axis-aligned 3D boxes."""
    return float(iou3d_matrix(a.as_array(), b.as_array())[0, 0])


def iou2d(a: Box2D, b: Box2D) -> float:
    """Area intersection-over-union of two axis-aligned 2D boxes."""
    return float(iou2d_matrix(a.as_tuple(), b.as_tuple())[0, 0])


def _iou_matrix(a: np.ndarray, b: np.ndarray, axes: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Pairwise IOU of two box arrays; ``axes`` holds each axis's (min, max) columns."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 2 * len(axes))
    b = np.asarray(b, dtype=np.float64).reshape(-1, 2 * len(axes))
    ov = np.ones((a.shape[0], b.shape[0]), dtype=np.float64)
    size_a, size_b = np.ones(a.shape[0]), np.ones(b.shape[0])
    for lo, hi in axes:
        ov *= np.maximum(
            0.0,
            np.minimum(a[:, hi, None], b[None, :, hi])
            - np.maximum(a[:, lo, None], b[None, :, lo]),
        )
        size_a *= a[:, hi] - a[:, lo]
        size_b *= b[:, hi] - b[:, lo]
    union = size_a[:, None] + size_b[None, :] - ov
    with np.errstate(invalid="ignore"):
        return np.where(ov > 0.0, ov / union, 0.0)


def iou3d_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise 3D IOU for box arrays shaped (n, 6) and (m, 6).

    Columns are (x_min, x_max, y_min, y_max, z_min, z_max), matching
    :meth:`Box3D.as_array`.
    """
    return _iou_matrix(a, b, ((0, 1), (2, 3), (4, 5)))


def iou2d_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise 2D IOU for box arrays shaped (n, 4) and (m, 4) in xyxy order."""
    return _iou_matrix(a, b, ((0, 2), (1, 3)))
