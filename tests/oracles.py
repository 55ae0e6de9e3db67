"""Independent oracles used by the test suite.

Each oracle deliberately recomputes its quantity through a different route
than the library (cell enumeration, voxel counting, exhaustive pixel scans,
brute-force permutations) so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from pose3dtrack import __version__
from pose3dtrack.errors import EvaluationError, ParseError, ValidationError
from pose3dtrack.geometry import Box3D
from pose3dtrack.ingest import Box2D, get_skeleton
from pose3dtrack.jsonio import json_lines as _json_lines
from pose3dtrack.metrics import AUC_THRESHOLDS, PckReport
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.tracking import OBSERVED, PREDICTED, Track, TrackState


# ---------------------------------------------------------------------------
# Small helpers that only the tests need
# ---------------------------------------------------------------------------

def decode_mask(mask) -> set[int]:
    """Exact set of row-major pixel indices covered by a Mask2D."""
    covered: set[int] = set()
    for start, length in mask.runs.tolist():
        covered.update(range(start, start + length))
    return covered


def box_volume(box: Box3D) -> float:
    return (box.x_max - box.x_min) * (box.y_max - box.y_min) * (box.z_max - box.z_min)


def translated(box: Box3D, dx: float, dy: float, dz: float) -> Box3D:
    return Box3D(box.x_min + dx, box.x_max + dx, box.y_min + dy, box.y_max + dy,
                 box.z_min + dz, box.z_max + dz)


def project(cam, x: float, y: float, z: float) -> tuple[float, float]:
    """Pixel (u, v) of the point (x, y, z): the inverse of
    ``CameraModel.back_project`` at the same depth z."""
    return (x * cam.fx / (z * cam.world_scale) + cam.cx,
            y * cam.fy / (z * cam.world_scale) + cam.cy)


def iou3d_cell_oracle(a, b) -> float:
    """Exact IOU by enumerating the axis-breakpoint cells of the box pair.

    a, b are (x_min, x_max, y_min, y_max, z_min, z_max) tuples.  Every cell
    of the grid induced by the per-axis breakpoints lies entirely inside or
    outside each box, so summing cell volumes by point-in-box tests on cell
    centers reproduces the volumes exactly.
    """

    def cells(a0, a1, b0, b1):
        pts = sorted({a0, a1, b0, b1})
        return [(lo, hi) for lo, hi in zip(pts, pts[1:]) if hi > lo]

    def inside(c, lo, hi):
        return lo <= c <= hi

    vol_a = vol_b = vol_i = 0.0
    for x0, x1 in cells(a[0], a[1], b[0], b[1]):
        for y0, y1 in cells(a[2], a[3], b[2], b[3]):
            for z0, z1 in cells(a[4], a[5], b[4], b[5]):
                v = (x1 - x0) * (y1 - y0) * (z1 - z0)
                cx, cy, cz = (x0 + x1) / 2, (y0 + y1) / 2, (z0 + z1) / 2
                in_a = (inside(cx, a[0], a[1]) and inside(cy, a[2], a[3])
                        and inside(cz, a[4], a[5]))
                in_b = (inside(cx, b[0], b[1]) and inside(cy, b[2], b[3])
                        and inside(cz, b[4], b[5]))
                if in_a:
                    vol_a += v
                if in_b:
                    vol_b += v
                if in_a and in_b:
                    vol_i += v
    union = vol_a + vol_b - vol_i
    return vol_i / union if union > 0 else 0.0


def iou3d_voxel_oracle(a, b, resolution: float = 0.01) -> float:
    """IOU by counting voxel centers on a fixed-resolution grid."""

    def axis_counts(a0, a1, b0, b1):
        lo = min(a0, b0)
        hi = max(a1, b1)
        n = max(int(np.ceil((hi - lo) / resolution)), 1)
        centers = lo + (np.arange(n) + 0.5) * resolution
        in_a = (centers >= a0) & (centers <= a1)
        in_b = (centers >= b0) & (centers <= b1)
        return in_a.sum(), in_b.sum(), (in_a & in_b).sum()

    ax = axis_counts(a[0], a[1], b[0], b[1])
    ay = axis_counts(a[2], a[3], b[2], b[3])
    az = axis_counts(a[4], a[5], b[4], b[5])
    v = resolution ** 3
    vol_a = ax[0] * ay[0] * az[0] * v
    vol_b = ax[1] * ay[1] * az[1] * v
    vol_i = ax[2] * ay[2] * az[2] * v
    union = vol_a + vol_b - vol_i
    return vol_i / union if union > 0 else 0.0


def extrema_pixel_scan(depth_rows, mask_pixels, box) -> tuple[float, float] | None:
    """Min/max valid depth by scanning every decoded mask pixel.

    depth_rows: nested list [row][col]; mask_pixels: set of row-major
    indices; box: (x_min, y_min, x_max, y_max) clamped pixel box.
    """
    width = len(depth_rows[0])
    height = len(depth_rows)
    x0 = min(max(box[0], 0.0), width - 1.0)
    y0 = min(max(box[1], 0.0), height - 1.0)
    x1 = min(max(box[2], 0.0), width - 1.0)
    y1 = min(max(box[3], 0.0), height - 1.0)
    values = []
    for idx in mask_pixels:
        row, col = divmod(idx, width)
        if x0 <= col <= x1 and y0 <= row <= y1:
            v = depth_rows[row][col]
            if v > 0.0:
                values.append(v)
    if not values:
        return None
    return min(values), max(values)


def best_assignment_total(iou: np.ndarray, gate: float) -> float:
    """Maximum gated-IOU total over all one-to-one assignments, brute force.

    Pairs below the gate contribute zero, which equals the optimum over
    matchings restricted to gated pairs because weights are non-negative.
    """
    iou = np.asarray(iou, dtype=np.float64)
    n, m = iou.shape
    if n == 0 or m == 0:
        return 0.0
    w = np.where(iou >= gate, iou, 0.0)
    if n <= m:
        perms = np.array(list(itertools.permutations(range(m), n)))
        totals = w[np.arange(n)[None, :], perms].sum(axis=1)
    else:
        perms = np.array(list(itertools.permutations(range(n), m)))
        totals = w[perms, np.arange(m)[None, :]].sum(axis=1)
    return float(totals.max())


def reference_canonical_matching(allowed, value) -> list[tuple[int, int]]:
    """The tie rule by enumeration: every matching of ``allowed`` pairs is
    listed, the maximum ``value(pairs)`` kept, and among those the least in
    row order (row 0's column, then row 1's, ...), an unmatched row ranking
    after every column.  ``value`` should be exact (say, Fraction sums)."""
    allowed = np.asarray(allowed, dtype=bool)
    n, m = allowed.shape
    options = [[c for c in range(m) if allowed[r, c]] + [None] for r in range(n)]
    best_key, best = None, []
    for choice in itertools.product(*options):
        used = [c for c in choice if c is not None]
        if len(used) != len(set(used)):
            continue
        pairs = [(r, c) for r, c in enumerate(choice) if c is not None]
        key = (value(pairs), tuple(-(m if c is None else c) for c in choice))
        if best_key is None or key > best_key:
            best_key, best = key, pairs
    return best


def reference_assignment(iou, gate):
    """``assign_by_iou`` by enumeration: (pairs, unmatched rows, unmatched
    columns) of the canonical matching of gated pairs, by exact IOU sums."""
    allowed = (iou > 0.0) & (iou >= gate)
    pairs = reference_canonical_matching(
        allowed, lambda pairs: sum(Fraction(iou[r, c]) for r, c in pairs))
    n, m = iou.shape
    return (pairs, [r for r in range(n) if r not in {r for r, _ in pairs}],
            [c for c in range(m) if c not in {c for _, c in pairs}])


def reference_frame_matching(gts, preds, radius):
    """``match_frame`` by enumeration on poses that differ only in root x:
    the most pairs within ``radius``, then the least exact total distance,
    with ids in ascending order on both sides."""
    gts, preds = sorted(gts, key=lambda g: g[0]), sorted(preds, key=lambda p: p[0])
    dist = np.array([[abs(float(g.root[0] - p.root[0])) for _, p in preds]
                     for _, g in gts]).reshape(len(gts), len(preds))
    pairs = reference_canonical_matching(
        dist <= radius,
        lambda pairs: (len(pairs), -sum(Fraction(dist[r, c]) for r, c in pairs)))
    return [(gts[r][0], preds[c][0]) for r, c in pairs]


# ---------------------------------------------------------------------------
# Trajectory prediction reference
#
# ``tracking.predict`` as it first stood: every observed state of the track
# is listed before the window is cut, each box is made an array of its own,
# and each block computes its own time base.  The library reads only the
# window and shares one time base, and must give the same bits.
# ---------------------------------------------------------------------------

def _reference_linear_fit_extrapolate(frames, values, target):
    """Least-squares line per column of `values`, evaluated at `target`."""
    if frames.size == 1:
        return values[0].copy()
    t = frames - frames.mean()
    denom = float(np.dot(t, t))
    mean = values.mean(axis=0)
    slope = (t @ (values - mean)) / denom
    return mean + slope * (target - frames.mean())


def reference_predict(track, window, target_frame):
    """``tracking.predict`` by its first formula."""
    observed = [s for s in track.states if s.kind == OBSERVED][-window:]
    if not observed:
        raise ValidationError("predict: track has no observed state")
    last = observed[-1].frame_index
    target = float(target_frame - last)
    frames = np.array([s.frame_index - last for s in observed], dtype=np.float64)
    ref_pose = observed[-1].pose3d

    box_vals = np.stack([s.box3d.as_array() for s in observed])
    joints_vals = np.stack([s.pose3d.joints[:, :3].reshape(-1) for s in observed])
    fit = _reference_linear_fit_extrapolate(frames, box_vals, target)
    box = Box3D.from_array(fit) if (fit[0::2] < fit[1::2]).all() else observed[-1].box3d
    joints_xyz = _reference_linear_fit_extrapolate(frames, joints_vals, target).reshape(-1, 3)
    joints = np.concatenate([joints_xyz, ref_pose.joints[:, 3:4]], axis=1)
    pose = Pose3D(joints=joints, root_index=ref_pose.root_index,
                  skeleton_id=ref_pose.skeleton_id)

    box2d = None
    if all(s.box2d is not None for s in observed):
        b2_vals = np.stack([np.array(s.box2d.as_tuple()) for s in observed])
        x0, y0, x1, y1 = _reference_linear_fit_extrapolate(frames, b2_vals, target)
        if x0 < x1 and y0 < y1:
            box2d = Box2D(float(x0), float(y0), float(x1), float(y1))
        else:
            box2d = observed[-1].box2d
    return box, pose, box2d


def clear_frame_counts(gts, preds, prev_assignment, radius):
    """One frame of CLEAR-MOT bookkeeping by exhaustive matching.

    gts / preds: lists of (id, root ndarray).  prev_assignment maps gt_id to
    the track it was last matched with.  Returns (matches dict, misses, fp,
    switches).  Persistence first, then the remainder is matched maximizing
    pair count and minimizing total distance by brute force.
    """
    matches = {}
    taken = set()
    for gt_id, root in gts:
        prev = prev_assignment.get(gt_id)
        if prev is None or prev in taken:
            continue
        for tid, proot in preds:
            if tid == prev and np.linalg.norm(root - proot) <= radius:
                matches[gt_id] = tid
                taken.add(tid)
                break
    rest_g = [(g, r) for g, r in gts if g not in matches]
    rest_p = [(t, r) for t, r in preds if t not in taken]

    best = (0, 0.0, {})
    options = [None] + list(range(len(rest_p)))
    for choice in itertools.product(options, repeat=len(rest_g)):
        used = [c for c in choice if c is not None]
        if len(used) != len(set(used)):
            continue
        count = 0
        dist = 0.0
        pairing = {}
        ok = True
        for (gt_id, root), c in zip(rest_g, choice):
            if c is None:
                continue
            tid, proot = rest_p[c]
            d = float(np.linalg.norm(root - proot))
            if d > radius:
                ok = False
                break
            count += 1
            dist += d
            pairing[gt_id] = tid
        if not ok:
            continue
        if count > best[0] or (count == best[0] and dist < best[1]):
            best = (count, dist, pairing)
    for gt_id, tid in best[2].items():
        matches[gt_id] = tid
        taken.add(tid)

    switches = sum(
        1 for gt_id, tid in matches.items()
        if prev_assignment.get(gt_id) is not None and prev_assignment[gt_id] != tid
    )
    misses = len(gts) - len(matches)
    fp = len(preds) - len(taken)
    return matches, misses, fp, switches


# ---------------------------------------------------------------------------
# Full-frame lifting reference
#
# The library lifts from one support cropped around each detection.  These
# functions keep the original full-frame formulation (per-run index decode,
# two full (H, W) boolean supports, one windowed np.median per joint) as the
# reference that the cropped path must reproduce exactly.
# ---------------------------------------------------------------------------

def _reference_mask_indices(mask) -> np.ndarray:
    if not len(mask.runs):
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.arange(start, start + length, dtype=np.int64)
                           for start, length in mask.runs])


def reference_depth_extrema(depth, mask, box, percentile=0.0):
    """Valid depths over decode(mask) ∩ clamp(box); None when there are none."""
    clamped = box.clamp(depth.width, depth.height)
    idx = _reference_mask_indices(mask)
    cols = idx % depth.width
    rows = idx // depth.width
    inside = ((cols >= clamped.x_min) & (cols <= clamped.x_max)
              & (rows >= clamped.y_min) & (rows <= clamped.y_max))
    vals = depth.values.reshape(-1)[idx[inside]]
    vals = vals[vals > 0.0].astype(np.float64)
    if vals.size == 0:
        return None
    if percentile <= 0.0:
        return float(vals.min()), float(vals.max())
    return (float(np.percentile(vals, percentile)),
            float(np.percentile(vals, 100.0 - percentile)))


def reference_lift_box(box, depth, mask, cam, min_thickness=0.2, percentile=0.0):
    """(x_min, x_max, y_min, y_max, z_min, z_max) or None for an empty support."""
    extrema = reference_depth_extrema(depth, mask, box, percentile)
    if extrema is None:
        return None
    z_min, z_max = extrema
    z_mid = (z_min + z_max) / 2.0
    xa, ya = cam.back_project(box.x_min, box.y_min, z_mid)
    xb, yb = cam.back_project(box.x_max, box.y_max, z_mid)
    if z_max - z_min < min_thickness:
        half = min_thickness / 2.0
        z_min, z_max = z_mid - half, z_mid + half
    return (min(xa, xb), max(xa, xb), min(ya, yb), max(ya, yb), z_min, z_max)


def reference_supports(depth, mask, box):
    """The full-frame (H, W) mask and clamped-box supports."""
    mask_support = np.zeros((depth.height, depth.width), dtype=bool)
    mask_support.reshape(-1)[_reference_mask_indices(mask)] = True
    clamped = box.clamp(depth.width, depth.height)
    box_support = np.zeros_like(mask_support)
    bc0, bc1 = math.ceil(clamped.x_min), math.floor(clamped.x_max)
    br0, br1 = math.ceil(clamped.y_min), math.floor(clamped.y_max)
    if bc0 <= bc1 and br0 <= br1:
        box_support[br0:br1 + 1, bc0:bc1 + 1] = True
    return mask_support, box_support


def reference_window_values(depth, support, u, v, patch, band=None) -> np.ndarray:
    """Valid float64 depths in the patch window around (u, v) on `support`."""
    r = patch // 2
    ci, ri = int(round(u)), int(round(v))
    c0, c1 = max(ci - r, 0), min(ci + r, depth.width - 1)
    r0, r1 = max(ri - r, 0), min(ri + r, depth.height - 1)
    if c0 > c1 or r0 > r1:
        return np.empty(0, dtype=np.float64)
    window = depth.values[r0:r1 + 1, c0:c1 + 1]
    vals = window[support[r0:r1 + 1, c0:c1 + 1] & (window > 0.0)].astype(np.float64)
    if band is not None:
        vals = vals[(vals >= band[0]) & (vals <= band[1])]
    return vals


def reference_lift_pose(det, depth, cam, patch=5, percentile=0.0, root_index=14):
    """(J, 4) joints, or None for a zero-confidence root or an empty support.

    root_index defaults to the basic15 pelvis.
    """
    kps = det.keypoints.joints
    if kps[root_index, 2] <= 0.0:
        return None
    extrema = reference_depth_extrema(depth, det.mask, det.box, percentile)
    if extrema is None:
        return None
    z_min, z_max = extrema
    z_mid = (z_min + z_max) / 2.0
    mask_support, box_support = reference_supports(depth, det.mask, det.box)
    joints = np.empty((kps.shape[0], 4), dtype=np.float64)
    for j in range(kps.shape[0]):
        u, v, conf = kps[j]
        if conf <= 0.0:
            joints[j] = (0.0, 0.0, 0.0, 0.0)
            continue
        vals = reference_window_values(depth, mask_support, u, v, patch)
        if vals.size == 0:
            vals = reference_window_values(depth, box_support, u, v, patch,
                                           band=(z_min, z_max))
        z = float(np.median(vals)) if vals.size else z_mid
        x, y = cam.back_project(u, v, z)
        joints[j] = (x, y, z, conf)
    for j in range(kps.shape[0]):
        if kps[j, 2] <= 0.0:
            joints[j, :3] = joints[root_index, :3]
            joints[j, 3] = 0.0
    return joints


# ---------------------------------------------------------------------------
# Scalar IOU reference
#
# The library's scalar iou3d/iou2d call the matrix kernels.  These keep the
# original per-axis scalar formulation, which the kernels must reproduce
# exactly.
# ---------------------------------------------------------------------------

def _overlap(a_min: float, a_max: float, b_min: float, b_max: float) -> float:
    return max(0.0, min(a_max, b_max) - max(a_min, b_min))


def reference_iou3d(a, b) -> float:
    """Volume IOU of two Box3D from per-axis scalar overlaps."""
    ov = (_overlap(a.x_min, a.x_max, b.x_min, b.x_max)
          * _overlap(a.y_min, a.y_max, b.y_min, b.y_max)
          * _overlap(a.z_min, a.z_max, b.z_min, b.z_max))
    if ov == 0.0:
        return 0.0
    return ov / (box_volume(a) + box_volume(b) - ov)


def reference_iou2d(a, b) -> float:
    """Area IOU of two Box2D from per-axis scalar overlaps."""
    ov = (_overlap(a.x_min, a.x_max, b.x_min, b.x_max)
          * _overlap(a.y_min, a.y_max, b.y_min, b.y_max))
    if ov == 0.0:
        return 0.0
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    return ov / (area_a + area_b - ov)


# ---------------------------------------------------------------------------
# Mask run checks, one run at a time
#
# Mask2D keeps its runs as an (n, 2) int64 array and finds a bad run with
# NumPy.  These keep the original per-run loops over Python ints, which the
# array code must reproduce: the same accept/reject and the same message.
# ---------------------------------------------------------------------------

def reference_mask_check(width, height, runs) -> None:
    """The original ``Mask2D.__post_init__``; raises ValidationError."""
    if width <= 0 or height <= 0:
        raise ValidationError("Mask2D: non-positive dimensions")
    total = width * height
    prev_end = -1  # require a gap of >=1 so the encoding is canonical
    for start, length in runs:
        if length <= 0:
            raise ValidationError(f"Mask2D: run ({start}, {length}) has length <= 0")
        if start <= prev_end:
            raise ValidationError(
                f"Mask2D: run starting at {start} overlaps or touches the previous run"
            )
        if start + length > total:
            raise ValidationError(
                f"Mask2D: run ({start}, {length}) exceeds {width}x{height}"
            )
        prev_end = start + length


def reference_box_overlaps_mask(box, width, height, runs) -> bool:
    """The original ``ingest._box_overlaps_mask``, row by row per run."""
    clamped = box.clamp(width, height)
    c0, c1 = math.ceil(clamped.x_min), math.floor(clamped.x_max)
    r0, r1 = math.ceil(clamped.y_min), math.floor(clamped.y_max)
    if c0 > c1 or r0 > r1:
        return False
    w = width
    for start, length in runs:
        row_a, row_b = start // w, (start + length - 1) // w
        if row_b < r0 or row_a > r1:
            continue
        for row in range(max(row_a, r0), min(row_b, r1) + 1):
            seg_a = max(start, row * w) - row * w
            seg_b = min(start + length - 1, row * w + w - 1) - row * w
            if seg_a <= c1 and seg_b >= c0:
                return True
    return False


def scene_to_dict(doc) -> dict:
    """The scene document as plain dicts and lists: ``write_scene`` must
    write exactly ``json.dumps(scene_to_dict(doc), indent=2) + "\n"``,
    which CPython encodes with its pure-Python encoder."""
    return {
        "metadata": {
            "fps": doc.fps,
            "skeleton": doc.skeleton_id,
            "units": doc.units,
            "engine_version": doc.engine_version,
        },
        "actors": [
            {
                "id": actor.actor_id,
                "birth": actor.birth_frame,
                "samples": [
                    {"frame": s.frame, "state": s.state, "joints": s.joints.tolist()}
                    for s in actor.samples
                ],
            }
            for actor in doc.actors
        ],
    }


# ---------------------------------------------------------------------------
# Pose accuracy and tracks-file reading, one pair or state at a time
#
# ``metrics.pck3d_rel`` scores every pair in one batched pass and
# ``tracking.read_tracks`` reads each track as two arrays.  These are the
# original per-pair and per-state loops, which must give equal reports and
# tracks, and the same exception type and text.
# ---------------------------------------------------------------------------

def _root_aligned_errors(gt_pose, pred_pose):
    """Per-joint Euclidean error after translating the prediction's root onto
    the ground-truth root; returns (errors, gt_valid mask)."""
    if gt_pose.skeleton_id != pred_pose.skeleton_id:
        raise EvaluationError(
            f"skeleton mismatch: {gt_pose.skeleton_id!r} vs {pred_pose.skeleton_id!r}"
        )
    shift = gt_pose.root - pred_pose.root
    aligned = pred_pose.joints[:, :3] + shift
    errors = np.linalg.norm(aligned - gt_pose.joints[:, :3], axis=1)
    valid = gt_pose.joints[:, 3] > 0.0
    return errors, valid


def reference_pck3d_rel(pairs, tau=0.15, with_auc=True):
    """The original ``metrics.pck3d_rel``, one pair at a time."""
    if tau <= 0.0:
        raise EvaluationError("tau must be > 0")
    if not pairs:
        raise EvaluationError("no matched pose pairs to score")
    skel = get_skeleton(pairs[0][0].skeleton_id)
    all_errors = []
    all_valid = []
    for gt_pose, pred_pose in pairs:
        errors, valid = _root_aligned_errors(gt_pose, pred_pose)
        all_errors.append(errors)
        all_valid.append(valid)
    errors = np.stack(all_errors)  # (pairs, joints)
    valid = np.stack(all_valid)
    total = int(valid.sum())
    if total == 0:
        raise EvaluationError("ground truth has no valid joints")
    correct = int(((errors <= tau) & valid).sum())

    per_joint: dict[str, float] = {}
    for j, name in enumerate(skel.joint_names):
        jt = int(valid[:, j].sum())
        if jt:
            per_joint[name] = 100.0 * int(((errors[:, j] <= tau) & valid[:, j]).sum()) / jt
    auc = None
    if with_auc:
        auc = float(np.mean([
            100.0 * ((errors <= t) & valid).sum() / total for t in AUC_THRESHOLDS
        ]))
    return PckReport(
        pck_rel=100.0 * correct / total,
        auc_rel=auc,
        tau=tau,
        joints_total=total,
        joints_correct=correct,
        per_joint=per_joint,
    )


def reference_read_tracks(path):
    """The original ``tracking.read_tracks``, one state at a time."""
    path = Path(path)
    header: dict = {}
    tracks: list[Track] = []
    for lineno, obj in _json_lines(path):
        try:
            if "header" in obj:
                header = obj["header"]
                if not isinstance(header, dict):
                    raise ParseError(f"{path}: header is not a JSON object", line=lineno)
                continue
            skeleton_id = header.get("skeleton", "basic15")
            root_index = get_skeleton(skeleton_id).root_index
            track = Track(track_id=int(obj["id"]), birth_frame=int(obj["birth"]))
            for s in obj["states"]:
                if s["kind"] not in (OBSERVED, PREDICTED):
                    raise ParseError(
                        f"{path}: unknown state kind {s['kind']!r}", line=lineno)
                track.states.append(TrackState(
                    frame_index=int(s["frame"]),
                    kind=s["kind"],
                    box3d=Box3D.from_array(s["box3d"]),
                    pose3d=Pose3D(s["pose3d"], root_index, skeleton_id),
                ))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"{path}: malformed track record ({e})", line=lineno) from None
        except ValidationError as e:
            raise ValidationError(f"{path}: line {lineno}: {e}") from None
        tracks.append(track)
    return header, tracks


def reference_write_tracks(path, tracks, skeleton_id, fps, tracker_cfg=None, kind="tracks"):
    """The original ``tracking.write_tracks``: one C-encoder ``json.dumps``
    of plain lists per record."""
    header: dict = {
        "kind": kind,
        "engine_version": __version__,
        "skeleton": skeleton_id,
        "fps": fps,
    }
    if tracker_cfg is not None:
        header["tracker"] = {**asdict(tracker_cfg), "predictor": "linear"}
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"header": header}) + "\n")
        for track in tracks:
            obj = {
                "id": track.track_id,
                "birth": track.birth_frame,
                "states": [
                    {
                        "frame": s.frame_index,
                        "kind": s.kind,
                        "box3d": list(s.box3d.as_array()),
                        "pose3d": s.pose3d.joints.tolist(),
                    }
                    for s in track.states
                ],
            }
            f.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# The encoder's type walk, one Python call per value
# ---------------------------------------------------------------------------

_FLOAT64 = np.dtype(np.float64)
_ARRAY_DTYPES = (_FLOAT64, np.dtype(np.int64))


def reference_scan(obj, texts: list, floats: list) -> bool:
    """The original recursive ``jsonio._scan``: whether orjson writes
    ``obj`` as ``json.dumps`` does if the strings put in ``texts`` are
    plain and the floats put in ``floats`` need no rewrite; false on any
    other type (a float32 array, a float subclass)."""
    kind = type(obj)
    if kind is dict or kind is list or kind is tuple:
        if kind is dict:
            texts.extend(obj)
            obj = obj.values()
        for value in obj:
            if not reference_scan(value, texts, floats):
                return False
        return True
    if kind is str:
        texts.append(obj)
    elif kind is float or kind is np.ndarray and obj.dtype == _FLOAT64:
        floats.append(obj)
    return kind in (str, float, int, bool, type(None)) or (
        kind is np.ndarray and obj.dtype in _ARRAY_DTYPES)
