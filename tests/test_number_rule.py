"""The number rule: every field a config or scenario dataclass annotates
``float`` holds a real number, checked when the object is built, so the
config and scenario readers and Python callers get the same rule; a JSON
bool or a numeric string in a file is an error that names the file, the
class and the field.  A tracks header's fps must be a JSON number too."""

import json
from dataclasses import fields

import numpy as np
import pytest

from pose3dtrack.cli import main as cli_main
from pose3dtrack.errors import ParseError, ValidationError
from pose3dtrack.ingest import (
    CameraModel,
    EngineConfig,
    LiftingConfig,
    TrackerConfig,
    config_to_dict,
    load_config,
)
from pose3dtrack.synth import Scenario, builtin, load_scenario, scenario_to_dict
from pose3dtrack.tracking import read_tracks

CAMERA = CameraModel(fx=600.0, fy=600.0, cx=320.0, cy=240.0)
# Where each config class sits in a config file (None: the top level).
CONFIG_SECTIONS = {CameraModel: "camera", LiftingConfig: "lifting",
                   TrackerConfig: "tracker", EngineConfig: None}
FLOAT_FIELDS = [(cls, f.name)
                for cls in (*CONFIG_SECTIONS, Scenario)
                for f in fields(cls) if f.type in ("float", float)]
NOT_NUMBERS = [True, False, "1"]


def test_the_walk_finds_every_float_field():
    assert {(cls.__name__, name) for cls, name in FLOAT_FIELDS} == {
        ("CameraModel", "fx"), ("CameraModel", "fy"), ("CameraModel", "cx"),
        ("CameraModel", "cy"), ("CameraModel", "world_scale"),
        ("LiftingConfig", "min_thickness"), ("LiftingConfig", "depth_percentile"),
        ("TrackerConfig", "iou_gate"), ("TrackerConfig", "min_track_score"),
        ("EngineConfig", "fps"),
        ("Scenario", "fps"), ("Scenario", "depth_noise"), ("Scenario", "keypoint_noise"),
    }


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=lambda v: getattr(v, "__name__", v))
def test_a_float_field_rejects_a_bool_or_a_string_naming_file_class_and_field(
        tmp_path, cls, name, value):
    if cls is Scenario:
        obj = scenario_to_dict(builtin("parallel_walk"))
        obj[name] = value
        reader = load_scenario
    else:
        obj = config_to_dict(EngineConfig(camera=CAMERA))
        section = CONFIG_SECTIONS[cls]
        (obj[section] if section else obj)[name] = value
        reader = load_config
    path = _write(tmp_path / "input.json", obj)
    with pytest.raises(ValidationError) as info:
        reader(path)
    assert str(info.value) == f"{path}: {cls.__name__}: {name} must be a number, got {value!r}"


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("name", [f.name for f in fields(CameraModel)])
def test_a_scenario_camera_takes_the_same_rule(tmp_path, name, value):
    obj = scenario_to_dict(builtin("parallel_walk"))
    obj["camera"][name] = value
    path = _write(tmp_path / "scenario.json", obj)
    with pytest.raises(ValidationError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: CameraModel: {name} must be a number, got {value!r}"


def test_numpy_scalars_from_python_callers_are_numbers():
    camera = CameraModel(fx=np.float64(600.0), fy=np.int64(600), cx=np.float32(320.0), cy=240)
    assert camera.fx == 600.0 and camera.cy == 240
    assert LiftingConfig(min_thickness=np.float64(2.0)).min_thickness == 2.0
    assert TrackerConfig(iou_gate=np.float64(0.5), min_track_score=np.int64(0)).iou_gate == 0.5
    cfg = EngineConfig(camera=camera, fps=np.int64(3))
    assert cfg.fps == 3.0 and type(cfg.fps) is float
    sc = Scenario(name="s", persons=builtin("parallel_walk").persons, frames=2,
                  fps=np.int64(20), camera=camera, width=64, height=48,
                  depth_noise=np.float64(2.0), keypoint_noise=np.int64(3))
    assert (sc.fps, sc.depth_noise, sc.keypoint_noise) == (20.0, 2.0, 3.0)
    assert {type(sc.fps), type(sc.depth_noise), type(sc.keypoint_noise)} == {float}


@pytest.mark.parametrize("value", [np.True_, None, [1.0], 1 + 0j], ids=repr)
def test_a_python_caller_gets_the_rule_too(value):
    with pytest.raises(ValidationError, match=r"^CameraModel: fx must be a number, got "):
        CameraModel(fx=value, fy=600.0, cx=320.0, cy=240.0)


def test_config_and_scenario_files_keep_their_integers_and_floats(tmp_path):
    # A camera value is stored as given; an fps or a noise becomes a float.
    obj = {"camera": {"fx": 600, "fy": 600, "cx": 320, "cy": 240}, "fps": 20}
    cfg = load_config(_write(tmp_path / "config.json", obj))
    assert (cfg.camera.cx, type(cfg.camera.cx), cfg.fps, type(cfg.fps)) == (320, int, 20.0, float)
    spec = {**scenario_to_dict(builtin("parallel_walk")), "fps": 20, "depth_noise": 0}
    sc = load_scenario(_write(tmp_path / "scenario.json", spec))
    echo = scenario_to_dict(builtin("parallel_walk"))
    assert json.dumps(scenario_to_dict(sc)) == json.dumps(echo)


@pytest.fixture(scope="module")
def ground_truth(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert cli_main(["synth", "--scenario", "parallel_walk", "--out-dir", str(out)]) == 0
    return (out / "ground_truth.jsonl").read_text().splitlines()


def _with_header_fps(tmp_path, lines, fps):
    header = json.loads(lines[0])
    header["header"]["fps"] = fps
    path = tmp_path / "tracks.jsonl"
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    return path


@pytest.mark.parametrize("fps", [True, "20", None, [20.0], 10**400],
                         ids=["true", "string", "null", "list", "past_float_range"])
def test_export_of_a_header_fps_that_is_not_a_number_exits_1(tmp_path, capsys, ground_truth, fps):
    path = _with_header_fps(tmp_path, ground_truth, fps)
    capsys.readouterr()
    assert cli_main(["export", "--tracks", str(path), "--out", str(tmp_path / "scene.json")]) == 1
    assert capsys.readouterr() == ("", f"error: line 1: {path}: header fps must be a number, "
                                       f"got {fps!r}\n")
    assert not (tmp_path / "scene.json").exists()


def test_eval_of_a_header_fps_that_is_not_a_number_exits_1(tmp_path, capsys, ground_truth):
    path = _with_header_fps(tmp_path, ground_truth, True)
    capsys.readouterr()
    assert cli_main(["eval", "--tracks", str(path), "--gt", str(path), "--metric", "mota"]) == 1
    assert capsys.readouterr() == ("", f"error: line 1: {path}: header fps must be a number, "
                                       "got True\n")


@pytest.mark.parametrize("fps", [20, 20.0], ids=repr)
def test_read_tracks_takes_an_integer_or_a_float_header_fps(tmp_path, ground_truth, fps):
    header, _ = read_tracks(_with_header_fps(tmp_path, ground_truth, fps))
    assert json.dumps(header["fps"]) == json.dumps(fps)


def test_a_header_fps_error_is_a_parse_error(tmp_path, ground_truth):
    with pytest.raises(ParseError) as info:
        read_tracks(_with_header_fps(tmp_path, ground_truth, "20"))
    assert info.value.line == 1
