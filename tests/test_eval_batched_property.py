"""Property tests for the batched evaluation paths.

``metrics.pck3d_rel`` scores all pairs in one pass and ``tracking.read_tracks``
reads each track as two arrays.  Both must equal the original per-pair and
per-state loops in ``tests/oracles.py`` under ``==``: the same reports
(``per_joint`` included), the same tracks, or the same exception type and
text.  ``read_tracks`` also applies two rules the per-state loop predates
(integer ids, births and frames; finite box extents): the readers agree up
to the first place one applies, where ``read_tracks`` raises that rule's
error.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pose3dtrack.errors import ParseError, PoseTrackError, ValidationError
from pose3dtrack.ingest import BASIC15, Skeleton, register_skeleton
from pose3dtrack.metrics import AUC_THRESHOLDS, auc_rel, pck3d_rel
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.tracking import OBSERVED, PREDICTED, read_tracks

from oracles import reference_pck3d_rel, reference_read_tracks

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
J = BASIC15.joint_count

# Same joint count as basic15 under another name, so a mismatched pair
# differs only in its skeleton id.
OTHER = Skeleton(name="basic15_other", joint_names=BASIC15.joint_names, root_index=0)
register_skeleton(OTHER)


# ---------------------------------------------------------------------------
# PCK / AUC
# ---------------------------------------------------------------------------

# Coordinates from a small pool (exact differences, so errors land exactly on
# tau and on the AUC grid) or anywhere in a few meters.  Hypothesis draws the
# structure and a seed; NumPy draws the many coordinates from it.
POOL = np.array([0.0, 0.125, -0.25, 0.5, 0.15, -0.15, *AUC_THRESHOLDS[:6]])
_tau = st.sampled_from([0.15, 0.125, 0.25, 0.5, *AUC_THRESHOLDS[::7]]) | st.floats(1e-6, 2.0)


@st.composite
def poses(draw, gt=False):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xyz = (POOL[rng.integers(0, POOL.size, (J, 3))] if draw(st.booleans())
           else rng.uniform(-3.0, 3.0, (J, 3)))
    conf = rng.choice([0.0, 0.5, 1.0], J, p=[0.3, 0.2, 0.5]) if gt else np.ones(J)
    if gt and draw(st.booleans()):
        conf[:] = 0.0 if draw(st.booleans()) else 1.0
    return Pose3D(joints=np.column_stack([xyz, conf]),
                  root_index=draw(st.integers(0, J - 1)), skeleton_id=BASIC15.name)


@st.composite
def pair_lists(draw, mismatches=False):
    pairs = [(draw(poses(gt=True)), draw(poses()))
             for _ in range(draw(st.integers(1, 8)))]
    if mismatches:
        for k in draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=2,
                               unique=True)):
            gt, pred = pairs[k]
            if draw(st.booleans()):
                pred = Pose3D(pred.joints, pred.root_index, OTHER.name)
            else:
                gt = Pose3D(gt.joints, gt.root_index, OTHER.name)
            pairs[k] = (gt, pred)
    return pairs


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PoseTrackError as e:
        return type(e), str(e)


@SETTINGS
@given(pairs=pair_lists(), tau=_tau)
def test_batched_pck_equals_per_pair_reference(pairs, tau):
    got = _outcome(pck3d_rel, pairs, tau=tau)
    expected = _outcome(reference_pck3d_rel, pairs, tau=tau)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert got.to_dict() == expected.to_dict()
    assert list(got.per_joint) == list(expected.per_joint)
    assert auc_rel(pairs) == reference_pck3d_rel(pairs).auc_rel


@SETTINGS
@given(pairs=pair_lists(mismatches=True))
def test_batched_pck_names_the_first_mismatching_pair(pairs):
    got = _outcome(pck3d_rel, pairs)
    assert isinstance(got, tuple) and "skeleton mismatch" in got[1]
    assert got == _outcome(reference_pck3d_rel, pairs)


def _pose(xyz_rows, conf=1.0, root_index=BASIC15.root_index):
    joints = np.zeros((J, 4))
    joints[:, 3] = conf
    for j, xyz in xyz_rows.items():
        joints[j, :3] = xyz
    return Pose3D(joints=joints, root_index=root_index, skeleton_id=BASIC15.name)


def test_error_exactly_at_tau_and_on_the_auc_grid_counts_as_correct():
    # Roots at the origin, so each error is exactly the joint's offset.
    gt = _pose({0: (0.15, 0.0, 0.0), 1: (0.0, 0.01, 0.0), 2: (0.0, 0.0, 0.1500001)})
    pred = _pose({})
    report = pck3d_rel([(gt, pred)], tau=0.15)
    assert report.per_joint["head"] == 100.0  # error 0.15 == tau
    assert report.per_joint["r_shoulder"] == 0.0  # just past tau
    assert report.to_dict() == reference_pck3d_rel([(gt, pred)], tau=0.15).to_dict()


def test_zero_confidence_ground_truth_joints_are_not_counted():
    gt = _pose({0: (9.0, 0.0, 0.0)}, conf=0.0)
    gt.joints[1:, 3] = 1.0
    report = pck3d_rel([(gt, _pose({}))])
    assert report.joints_total == J - 1 and "head" not in report.per_joint
    assert report.to_dict() == reference_pck3d_rel([(gt, _pose({}))]).to_dict()


def test_each_pose_is_aligned_through_its_own_root_index():
    gt = _pose({0: (1.0, 0.0, 0.0), 14: (5.0, 0.0, 0.0)}, root_index=0)
    pred = _pose({}, root_index=14)
    report = pck3d_rel([(gt, pred)])
    # gt root (joint 0) at x=1, pred root (joint 14) at 0: every pred joint
    # shifts by +1, so joint 0 is exact and joint 14 is 4 m off.
    assert report.per_joint["head"] == 100.0 and report.per_joint["pelvis"] == 0.0
    assert report.to_dict() == reference_pck3d_rel([(gt, pred)]).to_dict()


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_pck_rejects_a_tau_that_is_not_finite_and_positive(tau):
    with pytest.raises(PoseTrackError, match=r"^tau must be finite and > 0$"):
        pck3d_rel([(_pose({}), _pose({}))], tau=tau)


# ---------------------------------------------------------------------------
# Tracks files
# ---------------------------------------------------------------------------

@st.composite
def states(draw, frame):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = rng.uniform(-20.0, 20.0, 3)
    box = [float(v) for x, size in zip(lo, rng.uniform(0.01, 5.0, 3)) for v in (x, x + size)]
    joints = rng.uniform(-50.0, 50.0, (J, 4))
    joints[:, 3] = rng.choice([0.0, 0.5, 1.0], J)
    rows = joints.tolist()
    if draw(st.booleans()):  # JSON integers and awkward floats among the values
        for j, c in rng.integers(0, (J, 3), (4, 2)).tolist():
            rows[j][c] = draw(st.sampled_from([0, -3, 2**53 + 1, -0.0, 1e-300]))
    return {"frame": frame, "kind": draw(st.sampled_from([OBSERVED, PREDICTED])),
            "box3d": box, "pose3d": rows}


# Per-state faults; each value is a function of the state that returns it
# changed.  Some are accepted by both readers (numeric strings, bools); the
# infinite box and the string and float frames only by the per-state loop.
FAULTS = {
    "14 joints": lambda s: {**s, "pose3d": s["pose3d"][:14]},
    "16 joints": lambda s: {**s, "pose3d": s["pose3d"] + s["pose3d"][:1]},
    "3-value joint": lambda s: {**s, "pose3d": [s["pose3d"][0][:3]] + s["pose3d"][1:]},
    "5-value box": lambda s: {**s, "box3d": s["box3d"][:5]},
    "7-value box": lambda s: {**s, "box3d": s["box3d"] + [1.0]},
    "degenerate box": lambda s: {**s, "box3d": [1.0, 1.0] + s["box3d"][2:]},
    "reversed box": lambda s: {**s, "box3d": s["box3d"][:4] + s["box3d"][5:3:-1]},
    "NaN joint": lambda s: {**s, "pose3d": [[math.nan, 0.0, 0.0, 1.0]] + s["pose3d"][1:]},
    "inf joint": lambda s: {**s, "pose3d": s["pose3d"][:-1] + [[0.0, math.inf, 0.0, 1.0]]},
    "NaN box": lambda s: {**s, "box3d": [math.nan] + s["box3d"][1:]},
    "inf box": lambda s: {**s, "box3d": [-math.inf] + s["box3d"][1:]},
    "null joint value": lambda s: {**s, "pose3d": [[None, 0.0, 0.0, 1.0]] + s["pose3d"][1:]},
    "null box value": lambda s: {**s, "box3d": s["box3d"][:5] + [None]},
    "null joints": lambda s: {**s, "pose3d": None},
    "numeric string joint": lambda s: {**s, "pose3d": [["1.5", "-2", "1e-3", 1]] + s["pose3d"][1:]},
    "numeric string box": lambda s: {**s, "box3d": [str(v) for v in s["box3d"]]},
    "word string box": lambda s: {**s, "box3d": ["x"] + s["box3d"][1:]},
    "bool joint": lambda s: {**s, "pose3d": [[True, False, 2.0, True]] + s["pose3d"][1:]},
    "bool box": lambda s: {**s, "box3d": [False, True] + s["box3d"][2:]},
    "unknown kind": lambda s: {**s, "kind": "lost"},
    "list kind": lambda s: {**s, "kind": [OBSERVED]},
    "missing kind": lambda s: {k: v for k, v in s.items() if k != "kind"},
    "missing pose3d": lambda s: {k: v for k, v in s.items() if k != "pose3d"},
    "string frame": lambda s: {**s, "frame": str(s["frame"])},
    "float frame": lambda s: {**s, "frame": s["frame"] + 0.5},
    "word frame": lambda s: {**s, "frame": "third"},
    "state not an object": lambda s: [s["frame"]],
}


def _write(path, lines):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))


def _same_tracks(got, expected):
    (gh, gtracks), (eh, etracks) = got, expected
    assert gh == eh
    assert len(gtracks) == len(etracks)
    for a, b in zip(gtracks, etracks):
        assert (a.track_id, a.birth_frame, a.gap_run, a.terminated) == (
            b.track_id, b.birth_frame, b.gap_run, b.terminated)
        assert len(a.states) == len(b.states)
        for s, r in zip(a.states, b.states):
            assert (type(s.frame_index), s.frame_index, s.kind) == (
                type(r.frame_index), r.frame_index, r.kind)
            assert (s.box2d, s.detection) == (r.box2d, r.detection)
            box_s, box_r = dataclasses.astuple(s.box3d), dataclasses.astuple(r.box3d)
            assert [(type(v), v.hex()) for v in box_s] == [(type(v), v.hex()) for v in box_r]
            p, q = s.pose3d, r.pose3d
            assert (p.skeleton_id, p.root_index) == (q.skeleton_id, q.root_index)
            assert p.joints.dtype == q.joints.dtype and p.joints.shape == q.joints.shape
            assert p.joints.tobytes() == q.joints.tobytes()


def _float_box(box):
    """The six floats the per-state loop makes of a box, or None if it fails."""
    try:
        x0, x1, y0, y1, z0, z1 = (float(v) for v in box)
    except (TypeError, ValueError):
        return None
    return x0, x1, y0, y1, z0, z1


def _first_newer_rule(path, records):
    """(record index, state index or None, error) at the first place, in
    reading order, where ``read_tracks`` rejects what the per-state loop
    reads: a track id, birth or state frame that is not a JSON integer, or
    a well-ordered box with an infinite extent.  States whose kind or frame
    the loop rejects anyway are passed over; None when nothing applies."""
    for i, obj in enumerate(records):
        if not isinstance(obj, dict) or "header" in obj:
            continue
        for key in ("id", "birth"):
            if key in obj and type(obj[key]) is not int:
                return i, None, ParseError(
                    f"{path}: {key!r} must be a JSON integer, got {obj[key]!r}", line=i + 1)
        states = obj.get("states")
        for k, state in enumerate(states if isinstance(states, list) else ()):
            if (not isinstance(state, dict) or state.get("kind") not in (OBSERVED, PREDICTED)
                    or "frame" not in state):
                continue
            if type(state["frame"]) is not int:
                return i, k, ParseError(
                    f"{path}: 'frame' must be a JSON integer, got {state['frame']!r}",
                    line=i + 1)
            box = _float_box(state.get("box3d"))
            if (box and all(lo < hi for lo, hi in zip(box[0::2], box[1::2]))
                    and any(map(math.isinf, box))):
                return i, k, ValidationError(
                    f"{path}: line {i + 1}: Box3D: infinite extents x[{box[0]}, {box[1]}] "
                    f"y[{box[2]}, {box[3]}] z[{box[4]}, {box[5]}]")
    return None


def _reference(path):
    """The per-state loop's result on ``path`` under the two newer rules."""
    text = path.read_text()
    records = [json.loads(line) for line in text.splitlines()]
    found = _first_newer_rule(path, records)
    if found is None:
        return reference_read_tracks(path)
    i, k, error = found
    head = records[:i]
    if k is not None:
        head.append({**records[i], "states": records[i]["states"][:k]})
    _write(path, head)
    try:
        reference_read_tracks(path)  # a fault before the rule's place comes first
    finally:
        path.write_text(text)
    raise error


def _compare(path):
    try:
        expected = _reference(path)
    except Exception as e:  # noqa: BLE001 - the reader's exact exception is the subject
        with pytest.raises(type(e)) as info:
            read_tracks(path)
        assert type(info.value) is type(e) and str(info.value) == str(e)
        return "error"
    _same_tracks(read_tracks(path), expected)
    return "read"


@st.composite
def tracks_files(draw):
    lines = []
    if draw(st.booleans()):
        lines.append({"header": {"kind": "tracks", "skeleton": BASIC15.name, "fps": 20.0}})
    for track_id in range(draw(st.integers(1, 4))):
        birth = draw(st.integers(0, 5))
        track_states = [draw(states(birth + k)) for k in range(draw(st.integers(0, 5)))]
        lines.append({"id": track_id, "birth": birth, "states": track_states})
    places = [(i, k) for i, obj in enumerate(lines) for k in range(len(obj.get("states", ())))]
    if places:
        for i, k in draw(st.lists(st.sampled_from(places), max_size=3, unique=True)):
            fault = draw(st.sampled_from(sorted(FAULTS)))
            lines[i]["states"][k] = FAULTS[fault](lines[i]["states"][k])
    return lines


@SETTINGS
@given(lines=tracks_files())
def test_read_tracks_equals_per_state_reference(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("tracks") / "tracks.jsonl"
    _write(path, lines)
    _compare(path)


def _two_track_file(tmp_path, fault, at):
    rng = np.random.default_rng(3)
    good = []
    for frame in range(3):
        lo = rng.uniform(-1.0, 1.0, 3)
        joints = np.column_stack([rng.normal(size=(J, 3)), np.ones(J)])
        good.append({"frame": frame, "kind": OBSERVED,
                     "box3d": [v for x in lo for v in (x, x + 0.5)],
                     "pose3d": joints.tolist()})
    bad = [dict(s) for s in good]
    bad[at] = FAULTS[fault](bad[at])
    path = tmp_path / "tracks.jsonl"
    _write(path, [{"header": {"kind": "tracks", "skeleton": BASIC15.name, "fps": 20.0}},
                  {"id": 0, "birth": 0, "states": good},
                  {"id": 1, "birth": 0, "states": bad}])
    return path


ACCEPTED = {"numeric string joint", "numeric string box", "bool joint", "bool box"}


@pytest.mark.parametrize("at", [0, 2])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_state_fault_reads_as_the_per_state_reference(tmp_path, fault, at):
    path = _two_track_file(tmp_path, fault, at)
    assert _compare(path) == ("read" if fault in ACCEPTED else "error")


def test_the_first_bad_state_names_the_error(tmp_path):
    path = _two_track_file(tmp_path, "unknown kind", 2)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    lines[2]["states"][1] = FAULTS["14 joints"](lines[2]["states"][1])
    _write(path, lines)
    with pytest.raises(PoseTrackError, match=r"line 3: .*Pose3D: expected 15x4"):
        read_tracks(path)
    assert _compare(path) == "error"


def test_poses_of_a_track_are_rows_of_one_joint_array(tmp_path):
    path = _two_track_file(tmp_path, "numeric string box", 1)
    _, tracks = read_tracks(path)
    first = tracks[0].states
    assert all(s.pose3d.joints.base is first[0].pose3d.joints.base for s in first)
    assert first[0].pose3d.joints.base.shape == (3, J, 4)
