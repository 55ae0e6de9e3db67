"""The one tie rule shared by track association and evaluation matching.

Among the maximum-value matchings, rows in ascending order each take the
lowest column still possible, and staying unmatched ranks after every
column (``tracking.canonical_matching``).  Seeded dyadic inputs make exact
ties common and every sum exact, so results are compared under ``==`` with
a brute-force enumerator; a counter guards the one-solve fast path.
"""

from collections import Counter

import numpy as np
import pytest

from oracles import reference_assignment, reference_frame_matching
from pose3dtrack import metrics, tracking
from pose3dtrack.ingest import BASIC15, TrackerConfig
from pose3dtrack.metrics import match_frame, matched_pose_pairs, mota
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.synth import builtin, generate
from pose3dtrack.tracking import assign_by_iou


def pose_at(x):
    joints = np.tile([x, 0.0, 5.0, 1.0], (BASIC15.joint_count, 1))
    return Pose3D(joints=joints, root_index=BASIC15.root_index, skeleton_id=BASIC15.name)


# ---------------------------------------------------------------------------
# The rule against the enumerator
# ---------------------------------------------------------------------------

def test_assign_by_iou_follows_the_rule_on_dyadic_ties():
    rng = np.random.default_rng(20)
    for _ in range(800):
        n, m = rng.integers(1, 5, size=2)
        iou = rng.integers(0, 5, size=(n, m)) / 4.0
        for gate in (0.0, 0.25, 0.5):
            assert assign_by_iou(iou, gate) == reference_assignment(iou, gate)


def test_match_frame_follows_the_rule_on_dyadic_ties():
    rng = np.random.default_rng(21)
    for _ in range(800):
        n, m = rng.integers(1, 5, size=2)
        # Ids in shuffled list order: ties go by id, not by position.
        gts = [(int(i), pose_at(x / 4.0)) for i, x in
               zip(rng.permutation(9)[:n], rng.integers(0, 5, size=n))]
        preds = [(int(i), pose_at(x / 4.0)) for i, x in
                 zip(rng.permutation(9)[:m], rng.integers(0, 5, size=m))]
        assert match_frame(gts, preds, 0.5) == reference_frame_matching(gts, preds, 0.5)


# ---------------------------------------------------------------------------
# Pinned cases (the first two were answered otherwise by the ε-bonus solver)
# ---------------------------------------------------------------------------

def test_assign_tie_goes_to_the_lowest_column_for_row_zero():
    # {(0, 2), (1, 0)} and {(0, 1), (1, 2)} both total 1.5.
    iou = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 1.0]])
    assert assign_by_iou(iou, 0.3) == ([(0, 1), (1, 2)], [], [0])


def test_match_frame_tie_goes_to_the_lowest_track_id_for_the_lowest_gt_id():
    # Both matchings total 0.25.
    gts = [(0, pose_at(0.0)), (1, pose_at(0.0))]
    preds = [(0, pose_at(0.25)), (1, pose_at(0.0))]
    assert match_frame(gts, preds, 0.5) == [(0, 0), (1, 1)]
    assert match_frame(gts, preds[::-1], 0.5) == [(0, 0), (1, 1)]


def test_assign_tie_between_one_and_two_pairs_goes_by_row_order():
    # {(0, 0)} and {(0, 1), (1, 0)} both total 1.0: row 0 takes column 0.
    iou = np.array([[1.0, 0.5], [0.5, 0.0]])
    assert assign_by_iou(iou, 0.3) == ([(0, 0)], [1], [1])


# ---------------------------------------------------------------------------
# The fast path: one solve when the solver's matching already obeys the rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["full_occlusion", "three_person_mix"])
def test_untied_frames_take_one_solve_each(monkeypatch, name):
    calls = Counter()

    def counting(owner, attr, key, nonempty):
        original = getattr(owner, attr)

        def wrapper(*args):
            calls[key] += nonempty(*args)
            return original(*args)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(tracking, "_assignment", "solves", lambda *args: 1)
    counting(tracking, "assign_by_iou", "assignments", lambda iou, gate: iou.size > 0)
    counting(metrics, "match_frame", "assignments", lambda gts, preds, radius: bool(gts and preds))
    seq, gt = generate(builtin(name))
    tracks = tracking.run_sequence(seq, TrackerConfig())
    mota(gt, tracks)
    matched_pose_pairs(gt, tracks)
    assert calls["assignments"] > 0
    assert calls["solves"] == calls["assignments"]
