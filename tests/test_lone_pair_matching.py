"""A graph in which every allowed pair is alone on its row and its column has
one maximal matching, the kernel's; ``canonical_matching`` returns it
without the tie scan.  On random such graphs, with empty rows and columns
among them, ``assign_by_iou`` and ``match_frame`` must give the
enumerator's canonical matching (``oracles.reference_canonical_matching``)
after one kernel solve."""

from collections import Counter

import numpy as np

from oracles import reference_assignment, reference_frame_matching
from pose3dtrack import tracking
from pose3dtrack.ingest import BASIC15
from pose3dtrack.metrics import match_frame
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.tracking import assign_by_iou


def pose_at(x):
    joints = np.tile([x, 0.0, 5.0, 1.0], (BASIC15.joint_count, 1))
    return Pose3D(joints=joints, root_index=BASIC15.root_index, skeleton_id=BASIC15.name)


def lone_pairs(rng, n, m):
    """Random (rows, cols) of k pairs, no two sharing a row or a column, so
    that the other rows and columns are empty."""
    k = int(rng.integers(0, min(n, m) + 1))
    return rng.choice(n, k, replace=False).tolist(), rng.choice(m, k, replace=False).tolist()


def _counting_solves(monkeypatch):
    solves = Counter()
    original = tracking._assignment

    def counted(cost, allowed):
        solves["n"] += 1
        return original(cost, allowed)

    monkeypatch.setattr(tracking, "_assignment", counted)
    return solves


def test_assign_by_iou_on_lone_pairs_is_the_canonical_matching(monkeypatch):
    rng = np.random.default_rng(291)
    solves = _counting_solves(monkeypatch)
    for case in range(600):
        n, m = (int(v) for v in rng.integers(1, 8, size=2))
        gate = float(rng.choice([0.0, 0.25, 0.5]))
        # Below the gate or zero off the pairs, dyadic and above it on them.
        iou = rng.integers(0, 2, size=(n, m)) * gate / 2.0
        rows, cols = lone_pairs(rng, n, m)
        iou[rows, cols] = rng.integers(max(1, int(gate * 8)), 9, size=len(rows)) / 8.0
        allowed = (iou > 0.0) & (iou >= gate)
        assert allowed.sum() == len(rows)
        assert assign_by_iou(iou, gate) == reference_assignment(iou, gate)
        assert solves["n"] == case + 1


def test_match_frame_on_lone_pairs_is_the_canonical_matching(monkeypatch):
    rng = np.random.default_rng(292)
    solves = _counting_solves(monkeypatch)
    for case in range(600):
        n, m = (int(v) for v in rng.integers(1, 8, size=2))
        rows, cols = lone_pairs(rng, n, m)
        # Pair k sits near x = 4k, within the radius; every other person is
        # alone, gts past x = 100 and tracks past x = 200.
        gx, px = 100.0 + 4.0 * np.arange(n), 200.0 + 4.0 * np.arange(m)
        for k, (r, c) in enumerate(zip(rows, cols)):
            gx[r], px[c] = 4.0 * k, 4.0 * k + float(rng.choice([-0.5, 0.0, 0.25, 0.5]))
        # Ids in shuffled list order: the rule goes by id, not by position.
        gts = [(int(i), pose_at(x)) for i, x in zip(rng.permutation(9)[:n], gx.tolist())]
        preds = [(int(i), pose_at(x)) for i, x in zip(rng.permutation(9)[:m], px.tolist())]
        assert match_frame(gts, preds, 0.5) == reference_frame_matching(gts, preds, 0.5)
        assert solves["n"] == case + 1
