"""Differential property tests for the two bulk readers.

``parse_detections`` checks a whole detections file with one pass per rule
and builds its objects unchecked; ``read_tracks`` does the same per track.
Either falls back to building and checking one object at a time when a
check fails.  On random valid files, and on the same files with one value
replaced or one key dropped, the bulk reading and the one-at-a-time reading
must give ``==`` objects (with the same ``repr``) or raise the same
exception type with the same message."""

import copy
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pose3dtrack import ingest, tracking
from pose3dtrack.ingest import Skeleton, parse_detections, register_skeleton
from pose3dtrack.tracking import OBSERVED, PREDICTED, read_tracks

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
EACH_FAULT = settings(SETTINGS, max_examples=8)
# A three-joint skeleton keeps each drawn file small.
TRIO = Skeleton(name="bulk_trio", joint_names=("a", "b", "c"), root_index=1)
register_skeleton(TRIO)
J = TRIO.joint_count

# Replacement values: wrong types, integers at and past the int64 and float
# ranges, non-finite and signed-zero floats, numbers that parse as strings.
VALUES = [None, True, False, -1, 0, 1, 3, 2**31, 2**63, -2**63 - 1, 10**400, 0.5, -0.0,
          2.0, 1e308, math.nan, math.inf, -math.inf, "x", "3", "1.5", [], [1], [1, 2],
          [1, 2, 3], {}, {"a": 1}]
_DROP = object()  # delete the key or item instead of replacing it

_coords = st.sampled_from([0.0, 0.5, 1.0, 2.25, 7.0]) | st.floats(-20.0, 40.0)
_confs = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
_offsets = st.sampled_from([0.5, 1.0, 20.0]) | st.floats(0.25, 6.0)


@st.composite
def detection_record(draw):
    """A valid detection: its box holds the first pixel of its mask."""
    w, h = draw(st.integers(2, 12)), draw(st.integers(2, 9))
    total, runs = w * h, []
    pos = draw(st.integers(0, total - 1))
    for _ in range(draw(st.integers(1, 5))):
        if pos >= total:
            break
        length = draw(st.integers(1, min(6, total - pos)))
        runs.append([pos, length])
        pos += length + draw(st.integers(1, 5))
    row, col = divmod(runs[0][0], w)
    box = [col - draw(_offsets), row - draw(_offsets), col + draw(_offsets), row + draw(_offsets)]
    return {"frame": draw(st.integers(0, 4)), "box": box,
            "mask": {"w": w, "h": h, "runs": runs},
            "keypoints": [[draw(_coords), draw(_coords), draw(_confs)] for _ in range(J)],
            "score": draw(_confs)}


@st.composite
def track_record(draw, track_id):
    states = []
    for frame in range(draw(st.integers(1, 3))):
        lo = [draw(_coords) for _ in range(3)]
        box = [v for a in lo for v in (a, a + draw(st.floats(0.125, 3.0)))]
        states.append({"frame": frame, "kind": draw(st.sampled_from([OBSERVED, PREDICTED])),
                       "box3d": box,
                       "pose3d": [[draw(_coords), draw(_coords), draw(_coords), draw(_confs)]
                                  for _ in range(J)]})
    return {"id": track_id, "birth": 0, "states": states}


def _places(obj, at=()):
    """The key path of every field and item inside a decoded JSON value."""
    keys = list(obj) if isinstance(obj, dict) else range(len(obj)) if isinstance(obj, list) else ()
    for key in keys:
        yield at + (key,)
        yield from _places(obj[key], at + (key,))


@st.composite
def corrupted(draw, records):
    """One value of one record replaced, or its key dropped.  The place is
    drawn among all places alike, or by a walk down that stops at each
    level one time in three, so that both the many joint values and the
    few top-level fields are hit."""
    records = copy.deepcopy(records)
    record = records[draw(st.integers(0, len(records) - 1))]
    places = list(_places(record))
    if draw(st.booleans()):
        place = draw(st.sampled_from(places))
    else:
        place = draw(st.sampled_from([p for p in places if len(p) == 1]))
        while draw(st.integers(0, 2)) and (deeper := [p for p in places if p[:-1] == place]):
            place = draw(st.sampled_from(deeper))
    parent = record
    for key in place[:-1]:
        parent = parent[key]
    value = draw(st.sampled_from(VALUES + [_DROP]))
    if value is _DROP:
        del parent[place[-1]]
    else:
        parent[place[-1]] = value
    return records


# One broken rule, or one edge value, per fault: each edits a valid record in place.
DETECTION_FAULTS = {
    "negative frame": lambda r: r.update(frame=-1),
    "score above 1": lambda r: r.update(score=1.5),
    "score NaN": lambda r: r.update(score=math.nan),
    "confidence below 0": lambda r: r["keypoints"][-1].__setitem__(2, -0.25),
    "infinite keypoint": lambda r: r["keypoints"][0].__setitem__(1, math.inf),
    "missing joint": lambda r: r["keypoints"].pop(),
    "keypoint of two values": lambda r: r["keypoints"][0].pop(),
    "degenerate box": lambda r: r["box"].__setitem__(2, r["box"][0]),
    "box left of the frame": lambda r: r.update(box=[-9.0, r["box"][1], -1.0, r["box"][3]]),
    "box off the mask": lambda r: r.update(  # the mask's first pixel, the box's last
        box=[r["mask"]["w"] - 1.5, r["mask"]["h"] - 1.5, r["mask"]["w"] - 1.0, r["mask"]["h"] - 1.0],
        mask={**r["mask"], "runs": [[0, 1]]}),
    "frame one pixel wide": lambda r: r["mask"].update(w=1, runs=[[0, 1]]),
    "no runs": lambda r: r["mask"].update(runs=[]),
    "zero-length run": lambda r: r["mask"]["runs"][0].__setitem__(1, 0),
    "run past the frame": lambda r: r["mask"]["runs"][-1].__setitem__(1, 10**6),
    "runs out of order": lambda r: r["mask"]["runs"].append(r["mask"]["runs"][0]),
    "negative start": lambda r: r["mask"]["runs"][0].__setitem__(0, -1),
    "run of three values": lambda r: r["mask"]["runs"][0].append(1),
    "runs of three and one values": lambda r: r.update(  # the values of two valid runs
        box=[-1.0, -1.0, 99.0, 99.0], mask={**r["mask"], "runs": [[0, 1, 2], [1]]}),
    "float run value": lambda r: r["mask"]["runs"][0].__setitem__(1, 1.0),
    "bool run value": lambda r: r["mask"]["runs"][0].__setitem__(1, True),
    "run value past int64": lambda r: r["mask"]["runs"][0].__setitem__(1, 2**63),
    "zero width": lambda r: r["mask"].update(w=0),
    "width below -2**63": lambda r: r["mask"].update(w=-2**70),
    "float height": lambda r: r["mask"].update(h=float(r["mask"]["h"])),
    "frame wider than 2**31": lambda r: r["mask"].update(w=2**31, h=1),
    "box as strings": lambda r: r.update(box=[str(v) for v in r["box"]]),
    "box edge at -0.0": lambda r: r["box"].__setitem__(0, -0.0),  # valid; clamps to -0.0
    "missing score": lambda r: r.pop("score"),
}
TRACK_FAULTS = {
    "unknown kind": lambda t: t["states"][-1].update(kind="lost"),
    "float frame": lambda t: t["states"][0].update(frame=1.0),
    "bool id": lambda t: t.update(id=True),
    "degenerate box": lambda t: t["states"][-1]["box3d"].__setitem__(1, -30.0),
    "infinite box": lambda t: t["states"][0]["box3d"].__setitem__(5, math.inf),
    "NaN box": lambda t: t["states"][0]["box3d"].__setitem__(0, math.nan),
    "short box": lambda t: t["states"][0]["box3d"].pop(),
    "long box": lambda t: t["states"][0]["box3d"].append(9.0),
    "missing joint": lambda t: t["states"][-1]["pose3d"].pop(),
    "extra joint": lambda t: t["states"][0]["pose3d"].append([0.0, 0.0, 1.0, 1.0]),
    "joint row of five values": lambda t: t["states"][0]["pose3d"][0].append(1.0),
    "NaN joint": lambda t: t["states"][0]["pose3d"][1].__setitem__(2, math.nan),
    "joint past the float range": lambda t: t["states"][0]["pose3d"][0].__setitem__(0, 10**400),
    "no states": lambda t: t.update(states=[]),
    "joint rows as strings": lambda t: t["states"][0].update(pose3d=["1234"] * J),
    "box as a string": lambda t: t["states"][0].update(box3d="142536"),  # valid per state
    "missing pose": lambda t: t["states"][0].pop("pose3d"),
}


@st.composite
def with_fault(draw, records, fault):
    """The records with ``fault`` applied to one of them."""
    records = copy.deepcopy(records)
    fault(records[draw(st.integers(0, len(records) - 1))])
    return records


def _outcome(read, path):
    try:
        return "value", read(path)
    except Exception as e:  # noqa: BLE001 - the exception itself is compared
        return "error", type(e), str(e)


def _parse(path):
    with _small_batches:
        return parse_detections(path, skeleton_id=TRIO.name)


def _assert_same(read, text, slow_path):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.jsonl"
        path.write_text(text)
        bulk = _outcome(read, path)
        with slow_path:
            slow = _outcome(read, path)
    assert slow == bulk
    assert repr(slow) == repr(bulk)  # so signed zeros match too


def _detections_text(records):
    return "".join(json.dumps(r) + "\n" for r in records)


def _tracks_text(records):
    header = {"header": {"kind": "tracks", "skeleton": TRIO.name, "fps": 20.0}}
    return "".join(json.dumps(r) + "\n" for r in [header, *records])


_detection_files = st.lists(detection_record(), min_size=1, max_size=5)
_track_files = st.integers(1, 3).flatmap(
    lambda n: st.tuples(*(track_record(i) for i in range(n))).map(list))
_one_by_one = mock.patch.object(ingest, "_detections_in_bulk", return_value=None)
# Batches of a few runs, so that a file of a few detections spans several.
_small_batches = mock.patch.object(ingest, "_BATCH_RUNS", 4)
_state_by_state = mock.patch.object(tracking, "_states_from_arrays", return_value=None)


@SETTINGS
@given(_detection_files)
def test_parse_detections_in_bulk_equals_one_by_one(records):
    text = _detections_text(records)
    _assert_same(_parse, text, _one_by_one)
    with tempfile.TemporaryDirectory() as tmp:  # a valid file is read in bulk
        path = Path(tmp) / "input.jsonl"
        path.write_text(text)
        if _outcome(_parse, path)[0] == "value":
            with _small_batches:
                assert ingest._detections_in_bulk(path, TRIO.name) is not None


@pytest.mark.parametrize("fault", sorted(DETECTION_FAULTS))
@EACH_FAULT
@given(data=st.data())
def test_parse_detections_in_bulk_equals_one_by_one_on_a_broken_rule(fault, data):
    records = data.draw(_detection_files.flatmap(
        lambda r: with_fault(r, DETECTION_FAULTS[fault])))
    _assert_same(_parse, _detections_text(records), _one_by_one)


@SETTINGS
@given(_detection_files.flatmap(corrupted))
def test_parse_detections_in_bulk_equals_one_by_one_on_a_corrupted_value(records):
    _assert_same(_parse, _detections_text(records), _one_by_one)


@SETTINGS
@given(_track_files)
def test_read_tracks_in_bulk_equals_state_by_state(records):
    _assert_same(read_tracks, _tracks_text(records), _state_by_state)
    assert all(tracking._states_from_arrays(r["states"], TRIO) is not None for r in records)


@pytest.mark.parametrize("fault", sorted(TRACK_FAULTS))
@EACH_FAULT
@given(data=st.data())
def test_read_tracks_in_bulk_equals_state_by_state_on_a_broken_rule(fault, data):
    records = data.draw(_track_files.flatmap(lambda r: with_fault(r, TRACK_FAULTS[fault])))
    _assert_same(read_tracks, _tracks_text(records), _state_by_state)


@SETTINGS
@given(_track_files.flatmap(corrupted))
def test_read_tracks_in_bulk_equals_state_by_state_on_a_corrupted_value(records):
    _assert_same(read_tracks, _tracks_text(records), _state_by_state)
