"""``pose3dtrack synth --scenario FILE``: a scenario file re-renders its
bundle exactly, the seed and noise flags apply to it, and a fault in it is
an exit code 1 that names the file."""

import json
import shutil

import pytest

from pose3dtrack import synth as synth_module
from pose3dtrack.cli import main as cli_main
from pose3dtrack.errors import ScenarioError, ValidationError
from pose3dtrack.synth import BUILTIN_NAMES, builtin, load_scenario, scenario_to_dict


def bundle_bytes(out_dir):
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def synth(capsys, *argv):
    capsys.readouterr()
    assert cli_main(["synth", *argv]) == 0
    return capsys.readouterr()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_bundle_scenario_file_rewrites_the_bundle_byte_for_byte(tmp_path, capsys, name):
    first, second = tmp_path / "builtin", tmp_path / "file"
    out = synth(capsys, "--scenario", name, "--out-dir", str(first), "--seed", "7", "--noise", "0.5")
    again = synth(capsys, "--scenario", str(first / "scenario.json"), "--out-dir", str(second))
    assert again.out == out.out.replace(str(first), str(second))
    assert bundle_bytes(second) == bundle_bytes(first)
    shutil.rmtree(tmp_path)  # about 40 MB of rasters each


def test_seed_and_noise_flags_apply_to_a_file_scenario(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(builtin("three_person_mix"))))
    synth(capsys, "--scenario", "three_person_mix", "--out-dir", str(tmp_path / "builtin"),
          "--seed", "7", "--noise", "0.5")
    synth(capsys, "--scenario", str(path), "--out-dir", str(tmp_path / "file"),
          "--seed", "7", "--noise", "0.5")
    echo = json.loads((tmp_path / "file" / "scenario.json").read_text())
    assert (echo["seed"], echo["depth_noise"]) == (7, 0.5)
    assert bundle_bytes(tmp_path / "file") == bundle_bytes(tmp_path / "builtin")
    shutil.rmtree(tmp_path)


def minimal_scenario():
    return {"frames": 3, "width": 64, "height": 48,
            "camera": {"fx": 60.0, "fy": 60.0, "cx": 32.0, "cy": 24.0},
            "persons": [{"extent": [0.5, 1.0, 0.2], "waypoints": [[0, [0.0, 0.0, 3.0]]]}]}


def infinite_frames(spec):
    spec["frames"] = "Infinity"


def infinite_waypoint_frame(spec):
    spec["persons"][0]["waypoints"][0][0] = "Infinity"


@pytest.mark.parametrize("corrupt, text", [
    (infinite_frames, "scenario frames must be an int, got inf"),
    (infinite_waypoint_frame, "person 0 waypoint frame must be an int, got inf"),
])
def test_an_infinite_frame_in_a_scenario_file_exits_1_naming_the_file(
        tmp_path, capsys, corrupt, text):
    spec = minimal_scenario()
    corrupt(spec)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec).replace('"Infinity"', "Infinity"))
    capsys.readouterr()
    assert cli_main(["synth", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {text}\n"
    assert not (tmp_path / "out").exists()


def one_person(**change):
    return {"persons": [{**minimal_scenario()["persons"][0], **change}]}


@pytest.mark.parametrize("change, text", [
    (one_person(waypoints=[[0, [0.0, 3.0]]]), "person 0 has a waypoint without 3 coordinates"),
    ({"width": -5}, "scenario width and height must be ints > 0"),
    (one_person(extent=[0.5, 1.0]), "person 0 extent must be 3 finite values, w and h > 0, d >= 0"),
    ({"fps": 0}, "scenario fps must be finite and > 0"),
    ({"depth_noise": -0.1}, "scenario noise must be finite and >= 0"),
    ({"frames": 10**9}, "scenario of 1000000000 frames of 64x48 is over the "
                        "268435456-depth-value budget"),
    ({"frames": 3.0}, "scenario frames must be an int, got 3.0"),
    ({"frames": True}, "scenario frames must be an int, got True"),
    ({"width": 64.9}, "scenario width and height must be ints > 0"),
    ({"height": True}, "scenario width and height must be ints > 0"),
    ({"seed": 2.5}, "scenario seed must be an int >= 0, got 2.5"),
    ({"dropouts": [[0, 0.5, 2]]}, "dropout values must be ints, got (0, 0.5, 2)"),
    (one_person(waypoints=[[0.7, [0.0, 0.0, 3.0]]]),
     "person 0 waypoint frame must be an int, got 0.7"),
    # A JSON bool or a numeric string is not a number.
    ({"fps": "20"}, "Scenario: fps must be a number, got '20'"),
    ({"depth_noise": True}, "Scenario: depth_noise must be a number, got True"),
    ({"keypoint_noise": "0.5"}, "Scenario: keypoint_noise must be a number, got '0.5'"),
    ({"camera": {"fx": True, "fy": 60.0, "cx": 32.0, "cy": 24.0}},
     "CameraModel: fx must be a number, got True"),
    (one_person(extent=["0.5", True, 0.2]),
     "person 0 extent values must be numbers, got ['0.5', True, 0.2]"),
    (one_person(extent="abc"), "person 0 extent values must be numbers, got 'abc'"),
    (one_person(waypoints=[[0, [0.0, 0.0, 3.0]], [2, ["1", 0.0, 3.0]]]),
     "person 0 waypoint coordinates must be numbers, got ['1', 0.0, 3.0]"),
    ({"persons": [*one_person()["persons"],
                  *one_person(waypoints=[[0, [0.0, False, 3.0]]])["persons"]]},
     "person 1 waypoint coordinates must be numbers, got [0.0, False, 3.0]"),
])
def test_an_invalid_scenario_file_exits_1_before_writing_a_file(tmp_path, capsys, change, text):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**minimal_scenario(), **change}))
    capsys.readouterr()
    assert cli_main(["synth", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {text}\n")
    assert not (tmp_path / "out").exists()


def test_a_negative_seed_flag_exits_1_before_writing_a_file(tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli_main(["synth", "--scenario", "parallel_walk", "--seed", "-1",
                     "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: scenario seed must be an int >= 0, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("noise", ["-1", "nan"])
def test_a_bad_noise_flag_on_a_scenario_file_exits_1_before_writing_a_file(
        tmp_path, capsys, noise):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_scenario()))
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli_main(["synth", "--scenario", str(path), "--noise", noise,
                     "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: scenario noise must be finite and >= 0\n")
    assert not out.exists()


@pytest.mark.parametrize("change, text", [
    ({"frames": 12, **one_person(waypoints=[[0, [0.0, 0.0, 3.0]], [10, [0.0, 0.0, -1.0]]])},
     "person 0 behind camera at frame 8"),
    (one_person(waypoints=[[0, [1e30, 0.0, 3.0]]]),
     "Box3D: degenerate extents x[1e+30, 1e+30] y[-0.5, 0.5] z[3.0, 3.2]"),
])
def test_a_scenario_file_that_fails_to_render_exits_1_naming_the_file(
        tmp_path, capsys, change, text):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**minimal_scenario(), **change}))
    capsys.readouterr()
    assert cli_main(["synth", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {text}\n")
    assert not (tmp_path / "out").exists()


def test_a_builtin_that_fails_to_render_keeps_its_text(tmp_path, capsys, monkeypatch):
    def behind_camera(sc):
        raise ScenarioError("person 0 behind camera at frame 8")

    monkeypatch.setattr(synth_module, "generate", behind_camera)
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli_main(["synth", "--scenario", "parallel_walk", "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: person 0 behind camera at frame 8\n")
    assert not out.exists()


@pytest.mark.parametrize("change, error, text", [
    ({"frames": 0}, ScenarioError, "scenario needs at least one frame"),
    ({"camera": {"fx": -1.0, "fy": 60.0, "cx": 32.0, "cy": 24.0}}, ValidationError,
     "CameraModel: fx and fy must be > 0"),
])
def test_load_scenario_keeps_the_error_type_and_names_the_file(tmp_path, change, error, text):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**minimal_scenario(), **change}))
    with pytest.raises(error) as info:
        load_scenario(path)
    assert type(info.value) is error
    assert str(info.value) == f"{path}: {text}"
