"""The one JSON module: only ``jsonio`` imports ``json`` or ``orjson``; a
whole document's too long integer is named by its line; and the writers
that go through ``jsonio.encode`` write the bytes ``json.dumps`` wrote."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pose3dtrack
from pose3dtrack.errors import ParseError
from pose3dtrack.jsonio import encode
from pose3dtrack.ingest import (
    BASIC15,
    Box2D,
    CameraModel,
    Detection,
    EngineConfig,
    Keypoints2D,
    LiftingConfig,
    TrackerConfig,
    config_to_dict,
    encode_mask,
    load_config,
    write_config,
    write_detections,
)
from pose3dtrack.synth import PersonSpec, Scenario, scenario_to_dict, write_scenario_bundle

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# Floats ``repr`` writes in exponent notation (orjson does not), and the
# extremes: each must come out as ``json.dumps`` writes it.
EXPONENT = [1e-05, -1e-07, 1.5e-05, 5e-324, 1e16, -1.234e+16, 1.7976931348623157e308]
ODD = EXPONENT + [-0.0, 0.0, 1e-4, 9999999999999998.0]


def test_only_jsonio_imports_json_or_orjson():
    importers = set()
    for path in Path(pose3dtrack.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] in ("json", "orjson") for module in modules):
                importers.add(path.name)
    assert importers == {"jsonio.py"}


# ---------------------------------------------------------------------------
# The line of a whole document's too long integer
# ---------------------------------------------------------------------------

HUGE = "1" + "0" * 4999  # json.loads converts integers of up to 4300 digits


def _config_error(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_config(path)
    return path, info.value


def test_a_too_long_integer_in_a_document_names_its_line(tmp_path):
    path, error = _config_error(tmp_path, '{\n  "fps": 30,\n  "camera": ' + HUGE + "\n}\n")
    assert error.line == 3
    assert re.match(rf"line 3: {re.escape(str(path))}: invalid JSON \(Exceeds the limit "
                    r"\(4300 digits\)", str(error))


def test_a_too_long_integer_deep_in_a_multi_line_object_names_its_line(tmp_path):
    text = ('{\n  "fps": 30,\n  "lifting": {\n    "min_thickness": 0.5,\n'
            '    "depth_percentile": [1.25,\n      2e5,\n      ' + HUGE + "]\n  }\n}\n")
    assert _config_error(tmp_path, text)[1].line == 7


@pytest.mark.parametrize("before", [
    '"name": "' + HUGE + '",',  # digits in a string
    '"name": "\\\\\\"' + HUGE + '\\\\",',  # after escaped quotes and backslashes
    '"x": 0.' + HUGE + ",",  # a fraction's digits
    '"x": ' + HUGE + ".5,",  # a float's integer part
    '"é€😀": "' + HUGE + '",',  # after characters of several UTF-8 bytes
], ids=["string", "escapes", "fraction", "float", "multibyte"])
def test_digits_json_loads_reads_on_an_earlier_line_do_not_move_the_line(tmp_path, before):
    text = "{\n  " + before + '\n  "fps": 30,\n  "camera": ' + HUGE + "\n}\n"
    assert _config_error(tmp_path, text)[1].line == 4


# ---------------------------------------------------------------------------
# The rerouted writers write what json.dumps wrote
# ---------------------------------------------------------------------------

def _floats(**bounds):
    return st.sampled_from(ODD).filter(lambda x: _within(x, **bounds)) | st.floats(
        allow_nan=False, allow_infinity=False, **bounds)


def _within(x, min_value=-np.inf, max_value=np.inf):
    return min_value <= x <= max_value


@st.composite
def detections(draw):
    """A valid detection: its box reaches the frame's last pixel, which its
    mask always covers.  Its keypoints sometimes hold more exponent floats
    than one record is rewritten for."""
    w, h = draw(st.integers(2, 12)), draw(st.integers(2, 9))
    pixels = draw(st.sets(st.integers(0, w * h - 2), max_size=12)) | {w * h - 1}
    box = Box2D(draw(_floats(max_value=0.25)), draw(_floats(max_value=0.25)),
                draw(st.sampled_from([1e16, 1e300, float(w - 1), w + 0.5])),
                draw(st.sampled_from([1e16, 1.7976931348623157e308, float(h - 1)])))
    joints = draw(arrays(np.float64, (BASIC15.joint_count, 3), elements=_floats()))
    joints[:, 2] = draw(arrays(np.float64, BASIC15.joint_count,
                               elements=_floats(min_value=0.0, max_value=1.0)))
    if draw(st.booleans()):  # 45 exponent floats: json.dumps writes the record
        joints[:, :2], joints[:, 2] = draw(st.sampled_from(EXPONENT)), 1e-05
    return Detection(frame_index=draw(st.integers(0, 2**70)), box=box,
                     mask=encode_mask(sorted(pixels), w, h), keypoints=Keypoints2D(joints),
                     score=draw(_floats(min_value=0.0, max_value=1.0)))


def _json_dumps_line(det):
    """A detections line as ``json.dumps`` wrote it before ``jsonio.encode``."""
    obj = {
        "frame": det.frame_index,
        "box": list(det.box.as_tuple()),
        "mask": {"w": det.mask.width, "h": det.mask.height, "runs": det.mask.runs.tolist()},
        "keypoints": det.keypoints.joints.tolist(),
        "score": det.score,
    }
    return json.dumps(obj) + "\n"


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


@SETTINGS
@given(dets=st.lists(detections(), max_size=4))
def test_write_detections_writes_each_line_as_json_dumps(out_dir, dets):
    path = out_dir / "detections.jsonl"
    write_detections(path, dets)
    assert path.read_bytes() == "".join(map(_json_dumps_line, dets)).encode()


_positive = _floats(min_value=5e-324)
_unit = _floats(min_value=0.0, max_value=1.0)
_configs = st.builds(
    EngineConfig,
    camera=st.builds(CameraModel, fx=_positive, fy=_positive, cx=_floats(), cy=_floats(),
                     world_scale=_positive),
    fps=_positive,
    lifting=st.builds(LiftingConfig, min_thickness=_positive,
                      depth_percentile=_floats(min_value=0.0, max_value=49.0),
                      patch=st.sampled_from([1, 3, 5, 7])),
    tracker=st.builds(TrackerConfig, iou_gate=_unit, max_gap=st.integers(0, 2**70),
                      predictor_window=st.integers(1, 20), min_track_score=_unit,
                      association_mode=st.sampled_from(["iou3d", "iou2d"])),
)


@SETTINGS
@given(cfg=_configs)
def test_write_config_writes_the_indented_json_dumps(out_dir, cfg):
    path = out_dir / "config.json"
    write_config(path, cfg)
    assert path.read_bytes() == (json.dumps(config_to_dict(cfg), indent=2) + "\n").encode()


@st.composite
def scenarios(draw):
    """A one-frame scenario: every odd float is in a field that does not
    change what frame 0 renders (a later waypoint, world scale, fps, noise)."""
    later = (draw(st.integers(1, 2**40)),
             (draw(_floats()), draw(_floats()), draw(_floats())))
    person = PersonSpec(
        waypoints=((0, (draw(st.sampled_from([-0.0, 0.0, 1e-05, -0.25])), 0.0, 3.0)), later),
        extent=(0.5, 1.2, draw(st.sampled_from([0.0, 1e-05, 5e-324, 0.4]))))
    camera = CameraModel(fx=20.0, fy=20.0, cx=16.0, cy=12.0, world_scale=draw(_positive))
    return Scenario(name=draw(st.sampled_from(["echo", "é€", 'a"b\\'])), persons=(person,),
                    frames=1, fps=draw(_positive), camera=camera, width=32, height=24,
                    depth_noise=draw(st.sampled_from([0.0, 1e-05, 5e-324])),
                    keypoint_noise=draw(st.sampled_from([0.0, 1e-05, 5e-324, 1e16])),
                    seed=draw(st.integers(0, 2**70)))


@settings(SETTINGS, max_examples=40)
@given(sc=scenarios())
def test_scenario_echo_writes_the_indented_json_dumps(tmp_path_factory, sc):
    paths = write_scenario_bundle(sc, tmp_path_factory.mktemp("bundle"))
    assert paths["scenario"].read_bytes() == (
        json.dumps(scenario_to_dict(sc), indent=2) + "\n").encode()


# ---------------------------------------------------------------------------
# The json.dumps fallback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", [{1, 2}, frozenset(), object(), b"x", 1j, np.float16(1)],
                         ids=["set", "frozenset", "object", "bytes", "complex", "float16"])
def test_a_value_neither_encoder_takes_raises_json_dumps_error(value):
    obj = {"a": [1e-05, value]}
    with pytest.raises(TypeError) as expected:
        json.dumps(obj)
    with pytest.raises(TypeError) as got:
        encode(obj)
    assert str(got.value) == str(expected.value)


def test_the_fallback_writes_an_array_as_its_list():
    obj = {"a": np.array([[np.nan, 1e-05], [np.inf, -0.0]]), "b": np.arange(3)}
    assert encode(obj) == json.dumps({k: v.tolist() for k, v in obj.items()}).encode()
    assert encode(obj, indent=True) == json.dumps(
        {k: v.tolist() for k, v in obj.items()}, indent=2).encode()
