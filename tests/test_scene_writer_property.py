"""Property test for the scene writer: its bytes equal
``json.dumps(scene_to_dict(doc), indent=2) + "\\n"``, the pure-Python
encoder's output, on random documents, including empty actor, sample and
joint lists, NaN, infinities, -0.0, the floats ``repr`` writes with an
exponent, int64 joints, strings that need escaping and strings that look
like number tokens.  A token test holds the shared encoder to
``json.dumps`` on single floats of every binade."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import scene_to_dict
from pose3dtrack.errors import ValidationError
from pose3dtrack.export import Actor, ActorSample, SceneDocument, write_scene
from pose3dtrack.jsonio import encode as _encode

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# orjson writes 1e-05 as 0.00001, a prefix of its 1.5e-05 and part of its
# 10.00001; 1e+16 as 1e16.
TARGETED = [1e-05, 1.5e-05, 10.00001, -1e-07, 1e16, 1.234e+16, 5e-324,
            1.7976931348623157e308, -0.0]

_texts = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x7fé€\U0001f600'), st.characters()),
                 max_size=8)
_joints = st.one_of(
    arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 4)),
           elements=st.one_of(st.floats(), st.sampled_from(TARGETED))),
    arrays(np.int64, st.tuples(st.integers(0, 4), st.integers(0, 4))),
)
_states = st.sampled_from(["observed", "predicted", " 0.00001,", "1e16]", "0.00001", "1e16"])
_samples = st.builds(ActorSample, frame=st.integers(), joints=_joints,
                     state=st.one_of(_states, _texts))
_actors = st.builds(Actor, actor_id=st.integers(), birth_frame=st.integers(),
                    samples=st.lists(_samples, max_size=3).map(tuple))
_documents = st.builds(SceneDocument, fps=st.floats(), skeleton_id=_texts,
                       engine_version=_texts, units=_texts,
                       actors=st.lists(_actors, max_size=3).map(tuple))


@pytest.fixture(scope="module")
def scene_path(tmp_path_factory):
    return tmp_path_factory.mktemp("scene") / "scene.json"


@SETTINGS
@given(doc=_documents)
def test_write_scene_matches_the_indented_json_encoder(scene_path, doc):
    write_scene(scene_path, doc)
    expected = json.dumps(scene_to_dict(doc), indent=2) + "\n"
    assert scene_path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("shape", [(), (3,), (1, 2, 3)])
def test_write_scene_rejects_joints_that_are_not_2d(scene_path, shape):
    doc = SceneDocument(fps=20.0, skeleton_id="basic15", engine_version="0", actors=(
        Actor(actor_id=7, birth_frame=0, samples=(
            ActorSample(0, "observed", np.zeros((2, 3))),
            ActorSample(1, "predicted", np.zeros(shape)),
        )),
    ))
    with pytest.raises(ValidationError, match=r"actor 7 frame 1: joints must be 2-D"):
        write_scene(scene_path, doc)


def test_encoder_writes_every_float_as_json_dumps_does():
    rng = np.random.default_rng(15)
    random = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.concatenate([tens, np.nextafter(tens, -np.inf), np.nextafter(tens, np.inf)])
    for value in np.concatenate([random, edges]).tolist():
        assert _encode(value) == json.dumps(value).encode(), value
