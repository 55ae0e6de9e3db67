"""Tracking and pose-accuracy evaluation.

MOTA follows the CLEAR-MOT accumulation: per frame, ground-truth people are
matched to predicted poses by root-joint distance (identity persistence
first, then optimal assignment of the remainder); unmatched ground truth
counts as a miss, unmatched predictions as false positives, and a matched
person whose track id changed since its last matched frame as an identity
switch.  Pose accuracy is the percentage of root-aligned joints within a
threshold, plus its mean over a fixed threshold grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import EvaluationError
from .ingest import BASIC15, get_skeleton
from .pose3d import Pose3D
from .tracking import Track, canonical_matching

# Threshold grid for the area-under-curve score: 5 mm steps up to 150 mm.
AUC_THRESHOLDS = tuple(0.005 * k for k in range(1, 31))


@dataclass(frozen=True)
class GroundTruth:
    """Per-frame ground-truth poses keyed by frame index."""

    frames: dict[int, list[tuple[int, Pose3D]]]
    skeleton_id: str = BASIC15.name

    def __post_init__(self):
        for frame, entries in self.frames.items():
            ids = [gt_id for gt_id, _ in entries]
            if len(ids) != len(set(ids)):
                raise EvaluationError(f"frame {frame}: duplicate gt_id")

    @property
    def frame_indices(self) -> list[int]:
        return sorted(self.frames)

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.frames.values())


def _poses_by_frame(tracks: list[Track]) -> dict[int, list[tuple[int, Pose3D]]]:
    """frame -> [(track_id, pose)] in track-id order; a track id that has
    two poses in one frame is an ``EvaluationError``."""
    frames: dict[int, list[tuple[int, Pose3D]]] = {}
    for track in tracks:
        for state in track.states:
            frames.setdefault(state.frame_index, []).append((track.track_id, state.pose3d))
    for frame, entries in frames.items():
        entries.sort(key=lambda e: e[0])
        if len({tid for tid, _ in entries}) < len(entries):
            tid = next(a for (a, _), (b, _) in zip(entries, entries[1:]) if a == b)
            raise EvaluationError(f"frame {frame}: duplicate track id {tid}")
    return frames


def ground_truth_from_tracks(tracks: list[Track], skeleton_id: str = BASIC15.name) -> GroundTruth:
    """Reinterpret track records as ground truth ("id" becomes gt_id)."""
    return GroundTruth(frames=_poses_by_frame(tracks), skeleton_id=skeleton_id)


@dataclass
class MotReport:
    mota: float
    misses: int
    false_positives: int
    id_switches: int
    gt_total: int
    radius: float
    per_frame: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PckReport:
    pck_rel: float
    auc_rel: float
    tau: float
    joints_total: int
    joints_correct: int
    per_joint: dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Frame matching
# ---------------------------------------------------------------------------

def _check_radius(radius: float) -> None:
    if not (math.isfinite(radius) and radius > 0.0):
        raise EvaluationError("match radius must be finite and > 0")


def root_distances(
    gts: list[tuple[int, Pose3D]],
    preds: list[tuple[int, Pose3D]],
) -> np.ndarray:
    """Root-joint distances of one frame, ground truth by row and predictions
    by column in list order: the one distance that matching and identity
    persistence compare with the radius; inf past the float range."""
    g_roots = np.array([pose.root for _, pose in gts]).reshape(-1, 3)
    p_roots = np.array([pose.root for _, pose in preds]).reshape(-1, 3)
    with np.errstate(over="ignore"):
        return np.linalg.norm(g_roots[:, None, :] - p_roots[None, :, :], axis=2)


def match_frame(
    gts: list[tuple[int, Pose3D]],
    preds: list[tuple[int, Pose3D]],
    radius: float,
) -> list[tuple[int, int]]:
    """Optimal one-to-one (gt_id, track_id) matching by root distance.

    Maximizes the number of pairs within `radius`, minimizing total root
    distance among them.  Exact ties follow
    :func:`~pose3dtrack.tracking.canonical_matching` over both sides in id
    order: gt_ids in ascending order each take the lowest track_id still
    possible.
    """
    _check_radius(radius)
    if not gts or not preds:
        return []
    gts = sorted(gts, key=lambda g: g[0])
    preds = sorted(preds, key=lambda p: p[0])
    dist = root_distances(gts, preds)
    n, m = dist.shape
    within = dist <= radius
    big = max(1e9, radius * (n + m) * 10.0)
    pairs = canonical_matching(
        np.where(within, dist, big), within,
        lambda pairs: (len(pairs), -math.fsum(dist[r, c] for r, c in pairs)))
    return [(gts[r][0], preds[c][0]) for r, c in pairs]


# ---------------------------------------------------------------------------
# MOTA
# ---------------------------------------------------------------------------

def mota(gt: GroundTruth, tracks: list[Track], radius: float = 0.5) -> MotReport:
    """CLEAR-MOT accumulation over every frame with ground truth or a
    prediction (there, every prediction is a false positive)."""
    if gt.total == 0:
        raise EvaluationError("MOTA is undefined for empty ground truth")
    preds_by_frame = _poses_by_frame(tracks)
    last_matched: dict[int, int] = {}
    misses = false_positives = id_switches = 0
    per_frame: list[dict] = []

    for frame in sorted(gt.frames.keys() | preds_by_frame.keys()):
        gts = sorted(gt.frames.get(frame, ()), key=lambda g: g[0])
        preds = preds_by_frame.get(frame, [])  # in track-id order
        dist = root_distances(gts, preds)
        column = {tid: c for c, (tid, _) in enumerate(preds)}

        matches: dict[int, int] = {}
        taken: set[int] = set()
        # Identity persistence: a person keeps its previous track while the
        # track is still within radius; only the remainder is re-optimized.
        for row, (gt_id, _) in enumerate(gts):
            prev = last_matched.get(gt_id)
            if prev in column and prev not in taken and dist[row, column[prev]] <= radius:
                matches[gt_id] = prev
                taken.add(prev)
        rest_gts = [(gt_id, pose) for gt_id, pose in gts if gt_id not in matches]
        rest_preds = [(tid, pose) for tid, pose in preds if tid not in taken]
        for gt_id, tid in match_frame(rest_gts, rest_preds, radius):
            matches[gt_id] = tid
            taken.add(tid)

        frame_switches = 0
        for gt_id, tid in matches.items():
            prev = last_matched.get(gt_id)
            if prev is not None and prev != tid:
                frame_switches += 1
            last_matched[gt_id] = tid
        frame_misses = len(gts) - len(matches)
        frame_fp = len(preds) - len(taken)
        misses += frame_misses
        false_positives += frame_fp
        id_switches += frame_switches
        per_frame.append({
            "frame": frame,
            "gt": len(gts),
            "matches": len(matches),
            "misses": frame_misses,
            "false_positives": frame_fp,
            "id_switches": frame_switches,
        })

    value = 1.0 - (misses + false_positives + id_switches) / gt.total
    return MotReport(
        mota=value,
        misses=misses,
        false_positives=false_positives,
        id_switches=id_switches,
        gt_total=gt.total,
        radius=radius,
        per_frame=per_frame,
    )


# ---------------------------------------------------------------------------
# 3D PCK
# ---------------------------------------------------------------------------

def pck3d_rel(
    pairs: list[tuple[Pose3D, Pose3D]],
    tau: float = 0.15,
) -> PckReport:
    """Root-aligned percentage of correct keypoints over matched pose pairs.

    Each prediction is translated so its root lands on the ground-truth root
    (each pose's root through its own ``root_index``).  A joint is correct
    iff its error is <= tau (boundary inclusive); only joints valid in the
    ground truth are counted.  All pairs are scored in one batched pass, and
    the AUC over ``AUC_THRESHOLDS`` comes from the same errors.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise EvaluationError("tau must be finite and > 0")
    if not pairs:
        raise EvaluationError("no matched pose pairs to score")
    skel = get_skeleton(pairs[0][0].skeleton_id)
    for gt_pose, pred_pose in pairs:
        if gt_pose.skeleton_id != pred_pose.skeleton_id:
            raise EvaluationError(
                f"skeleton mismatch: {gt_pose.skeleton_id!r} vs {pred_pose.skeleton_id!r}"
            )
    gt = np.stack([g.joints for g, _ in pairs])  # (pairs, joints, 4)
    pred = np.stack([p.joints for _, p in pairs])
    rows = np.arange(len(pairs))
    with np.errstate(over="ignore"):  # an error past the float range is inf
        shift = (gt[rows, [g.root_index for g, _ in pairs], :3]
                 - pred[rows, [p.root_index for _, p in pairs], :3])
        aligned = pred[:, :, :3] + shift[:, None, :]
        errors = np.linalg.norm(aligned - gt[:, :, :3], axis=2)  # (pairs, joints)
    valid = gt[:, :, 3] > 0.0
    total = int(valid.sum())
    if total == 0:
        raise EvaluationError("ground truth has no valid joints")
    joint_totals = valid.sum(axis=0)
    joint_correct = ((errors <= tau) & valid).sum(axis=0)
    correct = int(joint_correct.sum())

    per_joint: dict[str, float] = {}
    for name, jt, jc in zip(skel.joint_names, joint_totals.tolist(), joint_correct.tolist()):
        if jt:
            per_joint[name] = 100.0 * jc / jt
    within = np.searchsorted(np.sort(errors[valid]), AUC_THRESHOLDS, side="right")
    return PckReport(
        pck_rel=100.0 * correct / total,
        auc_rel=float(np.mean(100.0 * within / total)),
        tau=tau,
        joints_total=total,
        joints_correct=correct,
        per_joint=per_joint,
    )


def auc_rel(pairs: list[tuple[Pose3D, Pose3D]]) -> float:
    """Mean of pck3d_rel over the fixed 5 mm threshold grid up to 150 mm."""
    return pck3d_rel(pairs).auc_rel


def matched_pose_pairs(gt: GroundTruth, tracks: list[Track],
                       radius: float = 0.5) -> list[tuple[Pose3D, Pose3D]]:
    """Frame-wise root-distance matching, returning (gt, prediction) pairs."""
    _check_radius(radius)
    preds_by_frame = _poses_by_frame(tracks)
    pairs: list[tuple[Pose3D, Pose3D]] = []
    for frame in gt.frame_indices:
        gts = sorted(gt.frames[frame], key=lambda g: g[0])
        preds = preds_by_frame.get(frame, [])
        gt_by_id = dict(gts)
        pred_by_id = dict(preds)
        for gt_id, tid in match_frame(gts, preds, radius):
            pairs.append((gt_by_id[gt_id], pred_by_id[tid]))
    return pairs
