"""The in-tree assignment kernel behind ``canonical_matching``.

Seeded rectangular inputs (more rows than columns and fewer, rows and
columns with no allowed pair, dyadic values that tie exactly) go through
``assign_by_iou`` and ``match_frame`` and are compared with the brute-force
enumerators.  The kernel's optimal total is also compared, on dense random
matrices up to 40x40, with SciPy's ``linear_sum_assignment`` when SciPy is
installed; the engine itself does not use it.
"""

import math

import numpy as np
import pytest

from oracles import best_assignment_total, reference_assignment, reference_frame_matching
from pose3dtrack.ingest import BASIC15
from pose3dtrack.metrics import match_frame
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.tracking import _assignment, assign_by_iou

# (rows, columns): wide, tall, and with an empty side; small enough for the
# enumerators.
SHAPES = [(1, 6), (2, 6), (3, 6), (4, 6), (2, 5), (3, 5), (6, 1), (6, 2), (6, 3),
          (6, 4), (5, 2), (5, 3), (4, 4), (0, 4), (4, 0)]


def dyadic_iou(rng, n, m):
    """Quarter-step IOUs with about a third of the rows and of the columns
    emptied, so exact ties and lone rows and columns are common."""
    iou = rng.integers(0, 5, size=(n, m)) / 4.0
    iou[rng.random(n) < 0.3] = 0.0
    iou[:, rng.random(m) < 0.3] = 0.0
    return iou


def pose_at(x):
    joints = np.tile([x, 0.0, 5.0, 1.0], (BASIC15.joint_count, 1))
    return Pose3D(joints=joints, root_index=BASIC15.root_index, skeleton_id=BASIC15.name)


@pytest.mark.parametrize("gate", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("n, m", SHAPES)
def test_assign_by_iou_on_rectangular_matrices_matches_the_enumerators(n, m, gate):
    rng = np.random.default_rng([n, m, int(gate * 4)])
    for _ in range(40):
        iou = dyadic_iou(rng, n, m)
        got = assign_by_iou(iou, gate)
        assert got == reference_assignment(iou, gate)
        assert math.fsum(iou[r, c] for r, c in got[0]) == best_assignment_total(iou, gate)


@pytest.mark.parametrize("n, m", SHAPES)
def test_match_frame_on_rectangular_frames_matches_the_enumerator(n, m):
    rng = np.random.default_rng([n, m, 7])
    for _ in range(40):
        # Roots on a quarter-metre grid up to 4 m apart with a 0.5 m radius:
        # many ground-truth poses and tracks have no partner at all.
        gts = [(int(i), pose_at(x / 4.0)) for i, x in
               zip(rng.permutation(9)[:n], rng.integers(0, 17, size=n))]
        preds = [(int(i), pose_at(x / 4.0)) for i, x in
                 zip(rng.permutation(9)[:m], rng.integers(0, 17, size=m))]
        assert match_frame(gts, preds, 0.5) == reference_frame_matching(gts, preds, 0.5)


def is_matching(rows, cols, allowed):
    return (len(set(rows.tolist())) == len(rows) == len(set(cols.tolist()))
            and bool(allowed[rows, cols].all()))


def test_kernel_total_equals_scipy_on_dense_matrices():
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(23)
    for _ in range(150):
        n, m = rng.integers(1, 41, size=2)
        # Integer costs sum exactly; the coarse ones tie often.
        cost = rng.integers(-1000 if rng.random() < 0.5 else -3, 0, size=(n, m)).astype(float)
        allowed = np.ones((n, m), dtype=bool)
        rows, cols = _assignment(cost, allowed)
        assert is_matching(rows, cols, allowed)
        assert len(rows) == min(n, m)
        ref_rows, ref_cols = linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == cost[ref_rows, ref_cols].sum()


def test_kernel_keeps_only_allowed_pairs_of_a_scipy_optimum():
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(24)
    for _ in range(150):
        n, m = rng.integers(1, 41, size=2)
        allowed = rng.random((n, m)) < rng.choice([0.05, 0.2, 0.6])
        # Every disallowed pair costs the same, more than any allowed pair.
        cost = np.where(allowed, rng.integers(1, 100, size=(n, m)), 10**6).astype(float)
        rows, cols = _assignment(cost, allowed)
        assert is_matching(rows, cols, allowed)
        ref_rows, ref_cols = linear_sum_assignment(cost)
        keep = allowed[ref_rows, ref_cols]
        assert ((len(rows), -cost[rows, cols].sum())
                == (int(keep.sum()), -cost[ref_rows[keep], ref_cols[keep]].sum()))
