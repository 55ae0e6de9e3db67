"""``pose3dtrack synth --scenario FILE``: a scenario file re-renders its
bundle exactly, the seed and noise flags apply to it, and a fault in it is
an exit code 1 that names the file."""

import json
import shutil

import pytest

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


@pytest.mark.parametrize("corrupt", [infinite_frames, infinite_waypoint_frame])
def test_an_infinite_frame_in_a_scenario_file_exits_1_naming_the_file(tmp_path, capsys, corrupt):
    spec = minimal_scenario()
    corrupt(spec)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec).replace('"Infinity"', "Infinity"))
    capsys.readouterr()
    assert cli_main(["synth", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: malformed scenario spec: "
                            "cannot convert float infinity to integer\n")
    assert not (tmp_path / "out").exists()


def one_person(**change):
    return {"persons": [{**minimal_scenario()["persons"][0], **change}]}


@pytest.mark.parametrize("change, text", [
    (one_person(waypoints=[[0, [0.0, 3.0]]]), "person 0 has a waypoint without 3 coordinates"),
    ({"width": -5}, "scenario width and height must be ints > 0"),
    (one_person(extent=[0.5, 1.0]), "person 0 extent must be 3 finite values, w and h > 0, d >= 0"),
    ({"fps": 0}, "scenario fps must be finite and > 0"),
    ({"depth_noise": -0.1}, "scenario noise must be finite and >= 0"),
])
def test_an_invalid_scenario_file_exits_1_before_writing_a_file(tmp_path, capsys, change, text):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**minimal_scenario(), **change}))
    capsys.readouterr()
    assert cli_main(["synth", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {text}\n")
    assert not (tmp_path / "out").exists()


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
