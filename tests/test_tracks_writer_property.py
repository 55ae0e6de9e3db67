"""Property test for the tracks writer: its bytes equal the original
writer's, one C-encoder ``json.dumps`` of plain lists per record
(``oracles.reference_write_tracks``), on random tracks with floats from
every binade, the floats ``repr`` writes with an exponent, ids and frames
past int64, joints that are not C-contiguous and strings that need
escaping or hold separators."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import reference_write_tracks
from pose3dtrack import jsonio
from pose3dtrack.geometry import Box3D
from pose3dtrack.ingest import BASIC15, Skeleton, TrackerConfig, register_skeleton
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.tracking import OBSERVED, PREDICTED, Track, TrackState, write_tracks

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# Random poses use a two-joint skeleton, so an example is quick to draw.
PAIR = Skeleton(name="writer_pair", joint_names=("a", "b"), root_index=1)
register_skeleton(PAIR)

# orjson writes 1e-05 as 0.00001, a prefix of its 1.5e-05 and part of its
# 10.00001; 1e+16 as 1e16.
TARGETED = [1e-05, 1.5e-05, 10.00001, -1e-07, 1e16, 1.234e+16, 5e-324,
            1.7976931348623157e308, -0.0]
BIG_INTS = [2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, -2 ** 63, -2 ** 63 - 1, 10 ** 30]
KINDS = [OBSERVED, PREDICTED, "a,b", "k:v", "é", "x y", '" 0.00001,"', "1e16]"]

# Random bit patterns put every binade, subnormals included, equally often.
_binade_floats = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]).filter(math.isfinite)
_floats = st.one_of(st.sampled_from(TARGETED), _binade_floats,
                    st.floats(allow_nan=False, allow_infinity=False))
_ints = st.one_of(st.integers(0, 200), st.sampled_from(BIG_INTS), st.integers())
_texts = st.text(st.one_of(st.sampled_from('",:[] \\\n\x7fé'), st.characters()), max_size=6)


@st.composite
def _boxes(draw):
    extents = [sorted(draw(st.lists(_floats, min_size=2, max_size=2, unique=True)))
               for _ in range(3)]
    return Box3D(*(v for pair in extents for v in pair))


_joints = arrays(np.float64, (PAIR.joint_count, 4), elements=_floats)
_poses = st.builds(
    Pose3D,
    # A Fortran-ordered copy is not C-contiguous, which orjson refuses.
    joints=st.one_of(_joints, _joints.map(np.asfortranarray)),
    root_index=st.just(PAIR.root_index), skeleton_id=st.just(PAIR.name))
_states = st.builds(TrackState, frame_index=_ints,
                    kind=st.one_of(st.sampled_from(KINDS), _texts),
                    box3d=_boxes(), pose3d=_poses)
_tracks = st.builds(Track, track_id=_ints, birth_frame=_ints,
                    states=st.lists(_states, max_size=3))
_configs = st.builds(TrackerConfig, iou_gate=st.floats(0.0, 1.0),
                     max_gap=st.integers(0, 2 ** 70), min_track_score=st.floats(0.0, 1.0))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("tracks")
    return root / "got.jsonl", root / "want.jsonl"


def assert_same_bytes(paths, *args, **kwargs):
    got, want = paths
    write_tracks(got, *args, **kwargs)
    reference_write_tracks(want, *args, **kwargs)
    assert got.read_bytes() == want.read_bytes()


@SETTINGS
@given(tracks=st.lists(_tracks, max_size=3),
       skeleton_id=st.one_of(st.just(BASIC15.name), _texts),
       fps=st.one_of(st.sampled_from(TARGETED), st.floats()),
       tracker_cfg=st.one_of(st.none(), _configs),
       kind=st.one_of(st.sampled_from(["tracks", "ground_truth"]), _texts))
def test_write_tracks_matches_the_json_dumps_writer(paths, tracks, skeleton_id, fps,
                                                    tracker_cfg, kind):
    assert_same_bytes(paths, tracks, skeleton_id, fps, tracker_cfg=tracker_cfg, kind=kind)


def _track(track_id, values, kind=OBSERVED, frame=0):
    """A two-state track whose joints start with ``values`` (then 0.5) and
    whose box extents are the first three values, each with its negation."""
    joints = np.full(BASIC15.joint_count * 4, 0.5)
    joints[:len(values)] = values[:joints.size]
    pose = Pose3D(joints=joints.reshape(BASIC15.joint_count, 4),
                  root_index=BASIC15.root_index, skeleton_id=BASIC15.name)
    box = Box3D(*(x for v in values[:3] for x in ((-abs(v), abs(v)) if v else (-1.0, 1.0))))
    return Track(track_id=track_id, birth_frame=frame,
                 states=[TrackState(frame, kind, box, pose), TrackState(frame + 1, kind, box, pose)])


@pytest.mark.parametrize("value", TARGETED)
def test_write_tracks_rewrites_each_targeted_float_as_repr_writes_it(paths, value):
    track = _track(3, [value, -value, 0.5, value / 2, 10.0, value])
    assert_same_bytes(paths, [track], BASIC15.name, value, tracker_cfg=TrackerConfig())


@pytest.mark.parametrize("big", BIG_INTS)
def test_write_tracks_writes_ids_and_frames_past_int64(paths, big):
    assert_same_bytes(paths, [_track(big, TARGETED, frame=big), _track(1, [0.25, 1.5, 2.0])],
                      BASIC15.name, 20.0)


@pytest.mark.parametrize("kind", KINDS)
def test_write_tracks_writes_any_state_kind(paths, kind):
    assert_same_bytes(paths, [_track(1, TARGETED, kind=kind)], kind, 20.0, kind=kind)


def test_write_tracks_writes_many_exponent_floats_in_one_record(paths):
    values = [float(f"{m}e-{e}") for m in (1, 3, 7) for e in range(5, 30)]
    # 24 and 30 exponent floats a record are rewritten; 132 send it to json.dumps.
    assert_same_bytes(paths, [_track(1, values[:6]), _track(2, values[:9]), _track(3, values)],
                      BASIC15.name, 20.0)


@pytest.mark.parametrize("value, by_orjson", [
    ("obs", True), ("x y", False), ("é", False),
    ([1.5, 1e-05, 1e16], True), ([1.5, math.nan], False), ([-math.inf], False),
    (2 ** 64 - 1, True), (2 ** 64, False), (-2 ** 63 - 1, False),
    (np.zeros(3), True), (np.arange(3), True), (np.zeros((2, 2))[:, :1], False),
    (np.zeros(3, np.float32), False), (np.zeros(3, bool), False),
    (np.full(32, 1e-05), True), (np.full(33, 1e-05), False),
])
def test_encode_uses_orjson_unless_it_cannot_give_the_same_text(monkeypatch, value, by_orjson):
    record = {"value": value}
    fallbacks = []
    dumps = json.dumps
    monkeypatch.setattr(jsonio.json, "dumps", lambda *a, **k: fallbacks.append(a) or dumps(*a, **k))
    got = jsonio.encode(record)
    monkeypatch.undo()
    assert got == json.dumps(record, default=np.ndarray.tolist).encode()
    assert fallbacks == ([] if by_orjson else [(record,)])
