"""Which encoder each writer's records go through.

``write_scene`` encodes the metadata and each actor inside one-element
lists and cuts the lists' head and tail off; the cut is pinned here on
both of ``jsonio.encode``'s encoders, against ``json.dumps(doc, indent=2)``
of the document written out as plain dicts.  And the writers of the big
files (tracks, scene, detections) must stay on orjson for their usual
records: bytes tests cannot tell a writer that quietly sends every record
to ``json.dumps``, so a guard makes ``json.dumps`` raise."""

import json

import numpy as np
import pytest

from pose3dtrack import jsonio
from pose3dtrack.export import Actor, ActorSample, SceneDocument, export_scene, write_scene
from pose3dtrack.geometry import Box3D
from pose3dtrack.ingest import (BASIC15, Box2D, Detection, Keypoints2D, encode_mask,
                                write_detections)
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.tracking import OBSERVED, PREDICTED, Track, TrackState, write_tracks

JSON_DUMPS = json.dumps  # the expected text, which the fixtures below do not see
JOINTS = [[0.5, -0.0, 1.25], [1e16, 2.0, -3.5]]
PLAIN = {"id": 1, "birth": 0, "samples": [{"frame": 0, "state": "observed", "joints": JOINTS}]}
# Each of these sends its actor's record to json.dumps.
FALLBACK = {
    "nan_joint": [{"frame": 2, "state": "predicted", "joints": [[float("nan"), 0.0, 1.0]]}],
    "33_exponent_floats": [{"frame": 2, "state": "observed",
                            "joints": [[1e-07 * (k + 1), 1.0, 2.0] for k in range(33)]}],
    "state_not_plain": [{"frame": 2, "state": "observed, maybe", "joints": JOINTS}],
}


def _document(fps: float, actors: list[dict]) -> tuple[SceneDocument, dict]:
    """A scene document and the same document as plain dicts."""
    doc = SceneDocument(fps=fps, skeleton_id="basic15", engine_version="9.8.7", actors=tuple(
        Actor(a["id"], a["birth"], tuple(ActorSample(s["frame"], s["state"], np.array(s["joints"]))
                                         for s in a["samples"]))
        for a in actors))
    return doc, {"metadata": {"fps": fps, "skeleton": "basic15", "units": "meters",
                              "engine_version": "9.8.7"}, "actors": actors}


@pytest.fixture
def dumps_calls(monkeypatch):
    """The indent of each ``json.dumps`` call ``jsonio`` makes."""
    calls = []

    def recording(obj, **kwargs):
        calls.append(kwargs.get("indent"))
        return JSON_DUMPS(obj, **kwargs)

    monkeypatch.setattr(jsonio.json, "dumps", recording)
    return calls


def _assert_written_as_json_dumps(path, doc, doc_dict):
    expected = JSON_DUMPS(doc_dict, indent=2) + "\n"
    write_scene(path, doc)
    assert path.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("reason", list(FALLBACK))
def test_write_scene_cuts_an_actor_json_dumps_wrote(tmp_path, dumps_calls, reason):
    doc, doc_dict = _document(12.5, [PLAIN, {"id": 4, "birth": 2, "samples": FALLBACK[reason]}])
    _assert_written_as_json_dumps(tmp_path / "scene.json", doc, doc_dict)
    assert dumps_calls == [2]  # the second actor only


@pytest.mark.parametrize("fps, calls", [(12.5, []), (float("nan"), [2])], ids=["orjson", "json"])
@pytest.mark.parametrize("actors", [[{"id": 3, "birth": 5, "samples": []}], []],
                         ids=["actor_without_samples", "no_actors"])
def test_write_scene_cuts_the_metadata_and_an_empty_actor(tmp_path, dumps_calls, fps, calls,
                                                          actors):
    doc, doc_dict = _document(fps, actors)
    _assert_written_as_json_dumps(tmp_path / "scene.json", doc, doc_dict)
    assert dumps_calls == calls


def _replay_track() -> Track:
    """A basic15 track of 100 states, as the tracker builds them, with a
    few joints at 1e-05."""
    rng = np.random.default_rng(5)
    states = []
    for frame in range(100):
        joints = np.column_stack([rng.normal(0.0, 0.5, (15, 2)), rng.uniform(3.0, 5.0, 15),
                                  np.ones(15)])
        if frame % 30 == 0:
            joints[frame % 15, 0] = 1e-05
        lo, hi = joints[:, :3].min(axis=0) - 0.1, joints[:, :3].max(axis=0) + 0.1
        box = Box3D(*(float(v) for pair in zip(lo, hi) for v in pair))
        states.append(TrackState(frame, PREDICTED if frame % 10 == 9 else OBSERVED, box,
                                 Pose3D(joints, BASIC15.root_index, BASIC15.name)))
    return Track(track_id=7, birth_frame=0, states=states)


def _crowd_detection() -> Detection:
    """A person in a 640x480 crowd frame: a 40x120 mask of 12 runs."""
    rng = np.random.default_rng(6)
    pixels = [row * 640 + col for row in range(200, 320, 10) for col in range(300, 340)]
    keypoints = np.column_stack([rng.uniform(300, 340, 15), rng.uniform(200, 320, 15),
                                 rng.uniform(0.2, 1.0, 15)])
    return Detection(frame_index=42, box=Box2D(300.0, 200.0, 340.0, 320.0),
                     mask=encode_mask(pixels, 640, 480), keypoints=Keypoints2D(keypoints),
                     score=0.875)


def test_the_big_writers_do_not_fall_back_to_json_dumps(tmp_path, monkeypatch):
    def refuse(obj, **kwargs):
        raise AssertionError("a record went to json.dumps")

    track = _replay_track()
    monkeypatch.setattr(jsonio.json, "dumps", refuse)
    write_tracks(tmp_path / "tracks.jsonl", [track], skeleton_id=BASIC15.name, fps=10.0)
    write_scene(tmp_path / "scene.json", export_scene([track], fps=10.0, skeleton_id=BASIC15.name))
    write_detections(tmp_path / "detections.jsonl", [_crowd_detection()] * 3)
