"""Input validation at the file and config boundary: camera intrinsics, fps,
depth directory names, detection records, tracks-file records, scene
documents, and metric, tracker and lifter numbers."""

import json
import math
import re

import numpy as np
import pytest

from pose3dtrack.cli import main as cli_main
from pose3dtrack.errors import EvaluationError, ParseError, ValidationError
from pose3dtrack.export import read_scene
from pose3dtrack.geometry import Box3D
from pose3dtrack.ingest import (
    BASIC15,
    CameraModel,
    DepthMap,
    LiftingConfig,
    config_from_dict,
    load_config,
    load_sequence,
    parse_detections,
    write_depth,
)
from pose3dtrack.metrics import ground_truth_from_tracks, match_frame, matched_pose_pairs, mota
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.synth import builtin, load_scenario, scenario_to_dict
from pose3dtrack.tracking import OBSERVED, Track, TrackState, read_tracks, write_tracks

CAMERA = {"fx": 600.0, "fy": 600.0, "cx": 320.0, "cy": 240.0}
# A JSON integer past the float range: float() and NumPy raise OverflowError.
HUGE = 10 ** 400


# ---------------------------------------------------------------------------
# Camera and fps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("fx", math.inf), ("fx", math.nan), ("fy", -math.inf), ("fy", math.nan),
    ("cx", math.nan), ("cx", math.inf), ("cy", -math.inf), ("cy", math.nan),
])
def test_camera_rejects_non_finite_intrinsics(field, value):
    with pytest.raises(ValidationError, match="finite"):
        CameraModel(**{**CAMERA, field: value})


@pytest.mark.parametrize("world_scale", [0.0, -1.0, math.inf, math.nan])
def test_camera_rejects_bad_world_scale(world_scale):
    with pytest.raises(ValidationError, match="world_scale"):
        CameraModel(**CAMERA, world_scale=world_scale)


@pytest.mark.parametrize("fps", [-3, 0, math.inf, math.nan])
def test_config_rejects_bad_fps(fps):
    with pytest.raises(ValidationError, match="fps"):
        config_from_dict({"camera": CAMERA, "fps": fps})


def test_config_file_rejects_non_numeric_fps(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"camera": CAMERA, "fps": "fast"}))
    with pytest.raises(ValidationError, match="config.json"):
        load_config(path)


def test_config_file_rejects_non_finite_camera(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"camera": {"fx": Infinity, "fy": 600, "cx": 320, "cy": 240}}')
    with pytest.raises(ValidationError, match="finite"):
        load_config(path)

# ---------------------------------------------------------------------------
# Depth directory
# ---------------------------------------------------------------------------

def _depth_dir(tmp_path, names):
    depth_dir = tmp_path / "depth"
    depth_dir.mkdir()
    depth = DepthMap(4, 3, np.ones((3, 4), dtype=np.float32))
    for name in names:
        write_depth(depth_dir / name, depth)
    detections = tmp_path / "detections.jsonl"
    detections.write_text("")
    return detections, depth_dir


def test_load_sequence_rejects_aliased_frame_names(tmp_path):
    detections, depth_dir = _depth_dir(tmp_path, ["0.dpt", "7.dpt", "007.dpt"])
    with pytest.raises(ValidationError, match="frame 7") as info:
        load_sequence(detections, depth_dir, CameraModel(**CAMERA))
    assert str(depth_dir / "7.dpt") in str(info.value)
    assert str(depth_dir / "007.dpt") in str(info.value)


def test_load_sequence_rejects_negative_frame_name(tmp_path):
    detections, depth_dir = _depth_dir(tmp_path, ["0.dpt", "-1.dpt"])
    with pytest.raises(ValidationError, match="negative") as info:
        load_sequence(detections, depth_dir, CameraModel(**CAMERA))
    assert str(depth_dir / "-1.dpt") in str(info.value)


@pytest.mark.parametrize("name", ["+3.dpt", " 4.dpt", "1_0.dpt", "5 .dpt", "-0.dpt",
                                  "٣.dpt"])
def test_load_sequence_rejects_numbers_that_are_not_plain_digits(tmp_path, name):
    detections, depth_dir = _depth_dir(tmp_path, ["0.dpt", name])
    with pytest.raises(ValidationError, match="plain digits") as info:
        load_sequence(detections, depth_dir, CameraModel(**CAMERA))
    assert str(depth_dir / name) in str(info.value)


def test_load_sequence_skips_non_numeric_names(tmp_path):
    detections, depth_dir = _depth_dir(tmp_path, ["0.dpt", "2.dpt", "notes.dpt"])
    seq = load_sequence(detections, depth_dir, CameraModel(**CAMERA))
    assert [fr.frame_index for fr in seq.frames] == [0, 2]


# ---------------------------------------------------------------------------
# Detection records
# ---------------------------------------------------------------------------

def _detections_file(tmp_path, box=(0.0, 0.0, 3.0, 3.0), runs=((0, 4),)):
    """A valid detection on line 1 and the given one on line 2."""
    def line(box, runs):
        return json.dumps({"frame": 0, "box": list(box),
                           "mask": {"w": 4, "h": 4, "runs": [list(r) for r in runs]},
                           "keypoints": [[1.0, 1.0, 1.0]] * 15, "score": 0.9})
    path = tmp_path / "detections.jsonl"
    path.write_text(line((0.0, 0.0, 3.0, 3.0), ((0, 4),)) + "\n" + line(box, runs) + "\n")
    return path


def test_parse_non_numeric_box_value_names_file_and_line(tmp_path):
    path = _detections_file(tmp_path, box=("x", 0.0, 3.0, 3.0))
    with pytest.raises(ParseError, match=r"line 2: .*detections.jsonl: missing or malformed"):
        parse_detections(path)


def test_parse_non_numeric_run_value_names_file_and_line(tmp_path):
    path = _detections_file(tmp_path, runs=(("x", 4),))
    with pytest.raises(ParseError, match=r"line 2: .*detections.jsonl: 'runs\[0\]\[0\]' must be"):
        parse_detections(path)


@pytest.mark.parametrize("run", [(0, 4, 1), (0,), ()])
def test_parse_run_that_is_not_a_pair_names_file_and_line(tmp_path, run):
    path = _detections_file(tmp_path, runs=((0, 2), run))
    with pytest.raises(ParseError, match=r"line 2: .*not a \[start, length\] pair"):
        parse_detections(path)


@pytest.mark.parametrize("run", [(2**63, 4), (0, 2**63), (-2**63 - 1, 4)])
def test_parse_run_value_past_int64_names_file_and_line(tmp_path, run):
    path = _detections_file(tmp_path, runs=(run,))
    with pytest.raises(ValidationError, match=r"detections.jsonl: line 2: value out of range"):
        parse_detections(path)


def test_parse_run_value_at_int64_max_is_checked_against_the_frame(tmp_path):
    path = _detections_file(tmp_path, runs=((2**63 - 1, 4),))
    with pytest.raises(ValidationError, match=r"line 2: Mask2D: run \(9223372036854775807, 4\) "
                                              r"exceeds 4x4"):
        parse_detections(path)


def _detection_record_file(tmp_path, field, value):
    """A valid detection on line 1; on line 2 the same with ``field``
    (``frame``, ``w``, ``h`` or ``runs``) set to ``value``."""
    obj = {"frame": 0, "box": [0.0, 0.0, 3.0, 3.0], "mask": {"w": 10, "h": 4, "runs": [[0, 4]]},
           "keypoints": [[1.0, 1.0, 1.0]] * 15, "score": 0.9}
    path = tmp_path / "detections.jsonl"
    lines = [json.dumps(obj)]
    (obj if field == "frame" else obj["mask"])[field] = value
    path.write_text("\n".join([*lines, json.dumps(obj)]) + "\n")
    return path


@pytest.mark.parametrize("field, value", [
    ("frame", 0.9), ("frame", 0.0), ("frame", True), ("frame", "0"), ("frame", None),
    ("w", 10.7), ("w", 10.0), ("w", "10"), ("h", True), ("h", 4.0),
], ids=repr)
def test_parse_detection_dimension_or_frame_must_be_a_json_integer(tmp_path, field, value):
    path = _detection_record_file(tmp_path, field, value)
    with pytest.raises(ParseError) as info:
        parse_detections(path)
    assert str(info.value) == f"line 2: {path}: {field!r} must be a JSON integer, got {value!r}"


@pytest.mark.parametrize("runs, name, value", [
    ([[0.7, 4.9], ["6", True]], "runs[0][0]", 0.7),
    ([[0, 4], ["6", True]], "runs[1][0]", "6"),
    ([[0, 4], [6, True]], "runs[1][1]", True),
    ([[0, 4.0]], "runs[0][1]", 4.0),
    ([[-0.0, 4]], "runs[0][0]", -0.0),
    ([[0, 4], ["abc", 2]], "runs[1][0]", "abc"),
    ([[0, 4], [6, None]], "runs[1][1]", None),
    ([[0, 4], [[6], 2]], "runs[1][0]", [6]),
    ([[0, 4], [math.inf, 2]], "runs[1][0]", math.inf),
], ids=repr)
def test_parse_mask_run_value_must_be_a_json_integer(tmp_path, runs, name, value):
    path = _detection_record_file(tmp_path, "runs", runs)
    with pytest.raises(ParseError) as info:
        parse_detections(path)
    assert str(info.value) == f"line 2: {path}: {name!r} must be a JSON integer, got {value!r}"


def test_parse_reads_integer_fields_exactly(tmp_path):
    path = _detection_record_file(tmp_path, "runs", [[0, 4], [6, 2], [39, 1]])
    frames = parse_detections(path)
    assert [f.frame_index for f in frames] == [0]
    mask = frames[0].detections[1].mask
    assert (type(mask.width), type(mask.height), mask.width, mask.height) == (int, int, 10, 4)
    assert mask.runs.tolist() == [[0, 4], [6, 2], [39, 1]]


# ---------------------------------------------------------------------------
# Tracks file records
# ---------------------------------------------------------------------------

def _state(box3d, joints=15):
    return {"frame": 0, "kind": OBSERVED, "box3d": box3d,
            "pose3d": [[0.0, 0.0, 2.0, 1.0]] * joints}


def _tracks_file(tmp_path, state):
    path = tmp_path / "tracks.jsonl"
    good = _state([-0.5, 0.5, -1.0, 1.0, 1.8, 2.2])
    lines = [{"header": {"kind": "tracks", "skeleton": BASIC15.name, "fps": 20.0}},
             {"id": 1, "birth": 0, "states": [good]},
             {"id": 2, "birth": 0, "states": [state]}]
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
    return path


def test_read_tracks_degenerate_box_names_file_and_line(tmp_path):
    path = _tracks_file(tmp_path, _state([0.5, -0.5, -1.0, 1.0, 1.8, 2.2]))
    with pytest.raises(ValidationError, match=r"line 3: Box3D") as info:
        read_tracks(path)
    assert str(path) in str(info.value)


def test_read_tracks_wrong_joint_count_names_file_and_line(tmp_path):
    path = _tracks_file(tmp_path, _state([-0.5, 0.5, -1.0, 1.0, 1.8, 2.2], joints=14))
    with pytest.raises(ValidationError, match=r"line 3: Pose3D") as info:
        read_tracks(path)
    assert str(path) in str(info.value)


def test_read_tracks_short_box_is_a_parse_error_with_line(tmp_path):
    path = _tracks_file(tmp_path, _state([-0.5, 0.5, -1.0, 1.0, 1.8]))
    with pytest.raises(ParseError, match=r"line 3: .*tracks.jsonl"):
        read_tracks(path)


def test_read_tracks_skips_blank_lines_but_counts_them(tmp_path):
    path = _tracks_file(tmp_path, _state([-0.5, 0.5, -1.0, 1.0, 1.8, 2.2]))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["", lines[0], "  ", lines[1], lines[2]]) + "\n")
    header, tracks = read_tracks(path)
    assert header["fps"] == 20.0 and [t.track_id for t in tracks] == [1, 2]
    path.write_text("\n".join([lines[0], "", "{nope"]) + "\n")
    with pytest.raises(ParseError, match=r"line 3: .*tracks.jsonl: invalid JSON"):
        read_tracks(path)


@pytest.mark.parametrize("record", ["5", "[1, 2]", '"header"', "null"])
def test_read_tracks_record_that_is_not_an_object_names_file_and_line(tmp_path, record):
    path = _tracks_file(tmp_path, _state([-0.5, 0.5, -1.0, 1.0, 1.8, 2.2]))
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], record, lines[1]]) + "\n")
    with pytest.raises(ParseError, match=r"line 2: .*tracks.jsonl: malformed track record"):
        read_tracks(path)


@pytest.mark.parametrize("header", ["5", "null", "[1, 2]", '"basic15"'])
def test_read_tracks_header_that_is_not_an_object_names_file_and_line(tmp_path, header):
    path = _tracks_file(tmp_path, _state([-0.5, 0.5, -1.0, 1.0, 1.8, 2.2]))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(['{"header": ' + header + '}'] + lines[1:]) + "\n")
    with pytest.raises(ParseError, match=r"line 1: .*tracks.jsonl: header is not a JSON object"):
        read_tracks(path)


@pytest.mark.parametrize("skeleton, problem", [
    (["x"], "skeleton_id must be a string, got ['x']"),
    ("nope", "unknown skeleton_id 'nope'"),
])
@pytest.mark.parametrize("with_tracks", [False, True])
def test_read_tracks_checks_the_header_skeleton_naming_file_and_line(
        tmp_path, skeleton, problem, with_tracks):
    path = _tracks_file(tmp_path, _state([-0.5, 0.5, -1.0, 1.0, 1.8, 2.2]))
    lines = path.read_text().splitlines()
    header = json.dumps({"header": {"kind": "tracks", "skeleton": skeleton}})
    path.write_text("\n".join([header, *(lines[1:] if with_tracks else [])]) + "\n")
    with pytest.raises(ValidationError) as info:
        read_tracks(path)
    assert str(info.value) == f"{path}: line 1: {problem}"


NOT_INTEGERS = [math.inf, -math.inf, math.nan, 2.5, 3.0, "3", True, False, None, [1]]


def _track_record_file(tmp_path, key, value):
    path = _tracks_file(tmp_path, _state([-0.5, 0.5, -1.0, 1.0, 1.8, 2.2]))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    if key == "frame":
        lines[2]["states"][0]["frame"] = value
    else:
        lines[2][key] = value
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    return path


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("key", ["frame", "id", "birth"])
def test_read_tracks_rejects_a_value_that_is_not_a_json_integer(tmp_path, key, value):
    path = _track_record_file(tmp_path, key, value)
    with pytest.raises(ParseError) as info:
        read_tracks(path)
    assert str(info.value) == f"line 3: {path}: {key!r} must be a JSON integer, got {value!r}"


@pytest.mark.parametrize("value", [0, -1, 7, 2**63, -(2**70)])
@pytest.mark.parametrize("key", ["frame", "id", "birth"])
def test_read_tracks_reads_json_integers_exactly(tmp_path, key, value):
    _, tracks = read_tracks(_track_record_file(tmp_path, key, value))
    got = {"frame": tracks[1].states[0].frame_index, "id": tracks[1].track_id,
           "birth": tracks[1].birth_frame}[key]
    assert type(got) is int and got == value


def test_eval_on_a_tracks_file_with_an_infinite_frame_exits_1(tmp_path, capsys):
    path = _track_record_file(tmp_path, "frame", math.inf)
    capsys.readouterr()
    assert cli_main(["eval", "--tracks", str(path), "--gt", str(path), "--metric", "mota"]) == 1
    assert capsys.readouterr().err == (
        f"error: line 3: {path}: 'frame' must be a JSON integer, got inf\n")


def _huge_state(key):
    state = _state([-0.5, 0.5, -1.0, 1.0, 1.8, 2.2])
    if key == "box3d":
        state["box3d"][1] = HUGE
    else:
        state["pose3d"] = [[HUGE, 0.0, 2.0, 1.0]] + state["pose3d"][1:]
    return state


@pytest.mark.parametrize("key", ["box3d", "pose3d"])
def test_read_tracks_integer_past_the_float_range_names_file_and_line(tmp_path, key):
    path = _tracks_file(tmp_path, _huge_state(key))
    with pytest.raises(ParseError) as info:
        read_tracks(path)
    assert str(info.value) == (
        f"line 3: {path}: malformed track record (int too large to convert to float)")


@pytest.mark.parametrize("command", ["eval", "export"])
def test_cli_on_a_tracks_file_with_an_integer_past_the_float_range_exits_1(
        tmp_path, capsys, command):
    path = _tracks_file(tmp_path, _huge_state("box3d"))
    argv = {"eval": ["eval", "--tracks", str(path), "--gt", str(path), "--metric", "mota"],
            "export": ["export", "--tracks", str(path), "--out", str(tmp_path / "scene.json")]}
    capsys.readouterr()
    assert cli_main(argv[command]) == 1
    assert capsys.readouterr().err == (
        f"error: line 3: {path}: malformed track record (int too large to convert to float)\n")


@pytest.mark.parametrize("extents, shown", [
    ((-math.inf, math.inf, 0.0, 1.0, 0.0, 1.0), "x[-inf, inf] y[0.0, 1.0] z[0.0, 1.0]"),
    ((-math.inf, 0.0, 0.0, 1.0, 0.0, 1.0), "x[-inf, 0.0] y[0.0, 1.0] z[0.0, 1.0]"),
    ((0.0, 1.0, 0.0, math.inf, 0.0, 1.0), "x[0.0, 1.0] y[0.0, inf] z[0.0, 1.0]"),
    ((0.0, 1.0, 0.0, 1.0, -math.inf, 1.0), "x[0.0, 1.0] y[0.0, 1.0] z[-inf, 1.0]"),
    ((0.0, 1.0, 0.0, 1.0, 0.0, math.inf), "x[0.0, 1.0] y[0.0, 1.0] z[0.0, inf]"),
])
def test_box3d_rejects_infinite_extents(extents, shown):
    with pytest.raises(ValidationError) as info:
        Box3D(*extents)
    assert str(info.value) == f"Box3D: infinite extents {shown}"


@pytest.mark.parametrize("extents, shown", [
    ((math.inf, -math.inf, 0.0, 1.0, 0.0, 1.0), "x[inf, -inf] y[0.0, 1.0] z[0.0, 1.0]"),
    ((0.0, 1.0, math.inf, math.inf, 0.0, 1.0), "x[0.0, 1.0] y[inf, inf] z[0.0, 1.0]"),
    ((0.0, 1.0, 0.0, 1.0, math.nan, 1.0), "x[0.0, 1.0] y[0.0, 1.0] z[nan, 1.0]"),
    ((0.0, 0.0, 0.0, 1.0, 0.0, 1.0), "x[0.0, 0.0] y[0.0, 1.0] z[0.0, 1.0]"),
])
def test_box3d_still_names_degenerate_extents_degenerate(extents, shown):
    with pytest.raises(ValidationError) as info:
        Box3D(*extents)
    assert str(info.value) == f"Box3D: degenerate extents {shown}"


def test_box3d_accepts_the_largest_finite_extents():
    big = np.finfo(np.float64).max
    assert Box3D(-big, big, -big, big, -big, big).x_max == big


def test_read_tracks_infinite_box_names_file_and_line(tmp_path):
    path = _tracks_file(tmp_path, _state([-math.inf, math.inf, 0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(ValidationError) as info:
        read_tracks(path)
    assert str(info.value) == (
        f"{path}: line 3: Box3D: infinite extents x[-inf, inf] y[0.0, 1.0] z[0.0, 1.0]")


def test_export_of_a_tracks_file_with_an_infinite_box_exits_1(tmp_path, capsys):
    path = _tracks_file(tmp_path, _state([-math.inf, math.inf, 0.0, 1.0, 0.0, 1.0]))
    capsys.readouterr()
    assert cli_main(["export", "--tracks", str(path), "--out", str(tmp_path / "scene.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: line 3: Box3D: infinite extents")
    assert not (tmp_path / "scene.json").exists()


# ---------------------------------------------------------------------------
# Scene documents
# ---------------------------------------------------------------------------

JOINTS = [[0.0, 1.0, 2.0 + j] for j in range(BASIC15.joint_count)]


def _scene():
    sample = {"frame": 3, "state": "observed", "joints": JOINTS}
    return {"metadata": {"fps": 20.0, "skeleton": BASIC15.name, "units": "meters",
                         "engine_version": "0.1.0"},
            "actors": [{"id": 1, "birth": 3, "samples": [sample]}]}


def _scene_file(tmp_path, scene):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene, indent=2) + "\n")
    return path


def test_read_scene_accepts_the_valid_document(tmp_path):
    doc = read_scene(_scene_file(tmp_path, _scene()))
    assert doc.actors[0].samples[0].joints.tolist() == JOINTS


def test_read_scene_invalid_json_names_file_and_line(tmp_path):
    text = json.dumps(_scene(), indent=2).replace('"birth": 3', '"birth": three')
    line = text.splitlines().index('      "birth": three,') + 1
    path = tmp_path / "scene.json"
    path.write_text(text + "\n")
    with pytest.raises(ParseError, match=rf"line {line}: .*scene.json: invalid JSON"):
        read_scene(path)


@pytest.mark.parametrize("field", ["metadata", "actors", "samples", "frame", "joints"])
def test_read_scene_missing_field_names_file(tmp_path, field):
    scene = _scene()
    for obj in (scene, scene["actors"][0], scene["actors"][0]["samples"][0]):
        obj.pop(field, None)
    with pytest.raises(ParseError, match=rf"scene.json: missing or malformed field .*{field}"):
        read_scene(_scene_file(tmp_path, scene))


@pytest.mark.parametrize("field, value", [("frame", "three"), ("joints", [[1.0, 2.0], [3.0]]),
                                          ("joints", [["x", 1.0, 2.0]])])
def test_read_scene_mistyped_value_names_file(tmp_path, field, value):
    scene = _scene()
    scene["actors"][0]["samples"][0][field] = value
    with pytest.raises(ParseError, match=r"scene.json: missing or malformed field"):
        read_scene(_scene_file(tmp_path, scene))


@pytest.mark.parametrize("field, value, problem", [
    ("id", 1.9, "id must be an integer, got 1.9"),
    ("id", "1", "id must be an integer, got '1'"),
    ("birth", True, "birth must be an integer, got True"),
    ("frame", 2.7, "frame must be an integer, got 2.7"),
    ("frame", 3.0, "frame must be an integer, got 3.0"),
    ("fps", True, "fps must be a number, got True"),
    ("fps", "20", "fps must be a number, got '20'"),
])
def test_read_scene_integer_and_number_fields_take_only_those_json_types(
        tmp_path, field, value, problem):
    scene = _scene()
    owner = {"fps": scene["metadata"], "frame": scene["actors"][0]["samples"][0]}
    owner.get(field, scene["actors"][0])[field] = value
    path = _scene_file(tmp_path, scene)
    with pytest.raises(ParseError) as info:
        read_scene(path)
    assert str(info.value) == f"{path}: missing or malformed field ({problem})"


@pytest.mark.parametrize("field, value", [("units", 5), ("units", None),
                                          ("engine_version", 0.1)])
def test_read_scene_text_fields_take_only_json_strings(tmp_path, field, value):
    scene = _scene()
    scene["metadata"][field] = value
    path = _scene_file(tmp_path, scene)
    with pytest.raises(ParseError) as info:
        read_scene(path)
    assert str(info.value) == (
        f"{path}: missing or malformed field ({field} must be a string, got {value!r})")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_read_scene_non_finite_joint_names_file_actor_and_frame(tmp_path, value):
    scene = _scene()
    scene["actors"][0]["samples"][0]["joints"] = [[0.0, value, 2.0]] + JOINTS[1:]
    path = _scene_file(tmp_path, scene)
    with pytest.raises(ValidationError) as info:
        read_scene(path)
    assert str(info.value) == f"{path}: actor 1 frame 3: non-finite joint value"


@pytest.mark.parametrize("actors", [{}, 5, "actors"])
def test_read_scene_actors_that_are_not_a_list_name_file(tmp_path, actors):
    with pytest.raises(ParseError, match=r"scene.json: .*actors must be a list"):
        read_scene(_scene_file(tmp_path, {**_scene(), "actors": actors}))


def test_read_scene_unknown_state_names_file(tmp_path):
    scene = _scene()
    scene["actors"][0]["samples"][0]["state"] = "guessed"
    with pytest.raises(ValidationError, match=r"scene.json: actor 1 frame 3: unknown state 'guessed'"):
        read_scene(_scene_file(tmp_path, scene))


@pytest.mark.parametrize("joints, shape", [
    ([1.0, 2.0], "(2,)"),
    ([[0.0, 1.0, 2.0]], "(1, 3)"),
    ([[0.0, 1.0]] * 15, "(15, 2)"),
    ([[0.0, 1.0, 2.0, 3.0]] * 15, "(15, 4)"),
    ([[[0.0, 1.0, 2.0]]] * 15, "(15, 1, 3)"),
])
def test_read_scene_joints_of_the_wrong_shape_name_file_actor_and_frame(tmp_path, joints, shape):
    scene = _scene()
    scene["actors"][0]["samples"][0]["joints"] = joints
    with pytest.raises(ValidationError) as exc:
        read_scene(_scene_file(tmp_path, scene))
    assert str(exc.value).endswith(
        f"scene.json: actor 1 frame 3: joints must have shape (15, 3), got {shape}")


@pytest.mark.parametrize("fps", [math.nan, math.inf, -math.inf, 0.0, -5.0])
def test_read_scene_rejects_bad_fps_naming_file(tmp_path, fps):
    scene = _scene()
    scene["metadata"]["fps"] = fps
    with pytest.raises(ValidationError) as exc:
        read_scene(_scene_file(tmp_path, scene))
    assert str(exc.value).endswith("scene.json: SceneDocument: fps must be finite and > 0")


def test_read_scene_unknown_skeleton_names_file(tmp_path):
    scene = _scene()
    scene["metadata"]["skeleton"] = "coco17"
    with pytest.raises(ValidationError, match=r"scene.json: unknown skeleton_id 'coco17'"):
        read_scene(_scene_file(tmp_path, scene))


def test_read_scene_skeleton_that_is_not_a_string_names_file(tmp_path):
    scene = _scene()
    scene["metadata"]["skeleton"] = ["basic15"]
    path = _scene_file(tmp_path, scene)
    with pytest.raises(ValidationError) as info:
        read_scene(path)
    assert str(info.value) == f"{path}: skeleton_id must be a string, got ['basic15']"


@pytest.mark.parametrize("field", ["joints", "fps"])
def test_read_scene_integer_past_the_float_range_names_file(tmp_path, field):
    scene = _scene()
    if field == "fps":
        scene["metadata"]["fps"] = HUGE
    else:
        scene["actors"][0]["samples"][0]["joints"] = [[HUGE, 1.0, 2.0]] + JOINTS[1:]
    path = _scene_file(tmp_path, scene)
    with pytest.raises(ParseError) as info:
        read_scene(path)
    assert str(info.value) == (
        f"{path}: missing or malformed field (int too large to convert to float)")


# ---------------------------------------------------------------------------
# Text that is not UTF-8
# ---------------------------------------------------------------------------

def _valid_tracks_file(tmp_path):
    return _tracks_file(tmp_path, _state([-0.5, 0.5, -1.0, 1.0, 1.8, 2.2]))


def _config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"camera": CAMERA, "fps": 20.0}, indent=2) + "\n")
    return path


def _scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(builtin("parallel_walk")), indent=2) + "\n")
    return path


def _put_bad_byte(path, key, newline="\n"):
    """Write byte 0xff into ``path``'s first ``"key"``, with ``newline``
    ending each line, and return that line's number."""
    lines = path.read_bytes().decode().splitlines()
    line = next(i for i, text in enumerate(lines, start=1) if f'"{key}"' in text)
    data = newline.join(lines).encode() + newline.encode()
    path.write_bytes(data.replace(f'"{key}"'.encode(), f'"{key}\xff"'.encode("latin-1"), 1))
    return line


READERS = {
    "detections": (_detections_file, "score", parse_detections),
    "tracks": (_valid_tracks_file, "birth", read_tracks),
    "config": (_config_file, "fps", load_config),
    "scene": (lambda tmp_path: _scene_file(tmp_path, _scene()), "birth", read_scene),
    "scenario": (_scenario_file, "persons", load_scenario),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("reader", list(READERS))
def test_a_byte_that_is_not_utf8_is_a_parse_error_naming_file_and_line(tmp_path, reader, newline):
    make, key, read = READERS[reader]
    path = make(tmp_path)
    line = _put_bad_byte(path, key, newline)
    with pytest.raises(ParseError) as info:
        read(path)
    assert str(info.value) == f"line {line}: {path}: invalid UTF-8 (byte 0xff)"


def test_non_ascii_text_still_reads(tmp_path):
    path = _valid_tracks_file(tmp_path)
    path.write_text(path.read_text().replace('"fps": 20.0', '"fps": 20.0, "note": "é☃😀"'),
                    encoding="utf-8")
    header, _ = read_tracks(path)
    assert header["note"] == "é☃😀"


def test_eval_on_a_tracks_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = _valid_tracks_file(tmp_path)
    line = _put_bad_byte(path, "birth")
    capsys.readouterr()
    assert cli_main(["eval", "--tracks", str(path), "--gt", str(path), "--metric", "mota"]) == 1
    assert capsys.readouterr().err == f"error: line {line}: {path}: invalid UTF-8 (byte 0xff)\n"


# Valid JSON that ``json.loads`` still cannot read: an integer past int()'s
# 4300-digit limit (a bare ValueError) and about 1000 levels of nesting (a
# RecursionError).
TOO_LONG = "5" * 5000
TOO_DEEP = "[" * 3000 + "]" * 3000
UNREADABLE = {
    "long_integer": (TOO_LONG, r"Exceeds the limit \(4300 digits\)"),
    "deep_nesting": (TOO_DEEP, r"maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("case, key", [("long_integer", "id"), ("deep_nesting", "states")])
def test_read_tracks_value_json_loads_cannot_read_names_file_and_line(tmp_path, case, key):
    value, problem = UNREADABLE[case]
    path = _valid_tracks_file(tmp_path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record[key] = "VALUE"
    lines[2] = json.dumps(record).replace('"VALUE"', value)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=rf"^line 3: {re.escape(str(path))}: invalid JSON "
                                         rf"\({problem}") as info:
        read_tracks(path)
    assert info.value.line == 3


@pytest.mark.parametrize("case, key", [("long_integer", "frame"), ("deep_nesting", "keypoints")])
def test_parse_detections_value_json_loads_cannot_read_names_file_and_line(tmp_path, case, key):
    value, problem = UNREADABLE[case]
    path = _detections_file(tmp_path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record[key] = "VALUE"
    lines[1] = json.dumps(record).replace('"VALUE"', value)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=rf"^line 2: {re.escape(str(path))}: invalid JSON "
                                         rf"\({problem}") as info:
        parse_detections(path)
    assert info.value.line == 2


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_a_document_json_loads_cannot_read_is_a_parse_error_naming_the_file(tmp_path, case):
    value, problem = UNREADABLE[case]
    path = tmp_path / "config.json"
    path.write_text('{\n  "camera": ' + value + "\n}\n")
    line = 2 if case == "long_integer" else None  # json.loads gives nesting no position
    prefix = f"line {line}: " if line else ""
    with pytest.raises(ParseError, match=rf"^{prefix}{re.escape(str(path))}: invalid JSON "
                                         rf"\({problem}") as info:
        load_config(path)
    assert info.value.line == line


# ---------------------------------------------------------------------------
# Metric, tracker and lifter numbers
# ---------------------------------------------------------------------------

BAD_POSITIVE = [math.nan, math.inf, -math.inf, 0.0, -1.0]
RADIUS_MESSAGE = "match radius must be finite and > 0"
TAU_MESSAGE = "tau must be finite and > 0"


def _one_person_tracks():
    joints = np.column_stack([np.zeros((BASIC15.joint_count, 3)), np.ones(BASIC15.joint_count)])
    joints[:, 2] = 2.0
    pose = Pose3D(joints=joints, root_index=BASIC15.root_index, skeleton_id=BASIC15.name)
    box = Box3D(-0.5, 0.5, -1.0, 1.0, 1.8, 2.2)
    track = Track(track_id=0, birth_frame=0,
                  states=[TrackState(f, OBSERVED, box, pose) for f in range(3)])
    return [track]


@pytest.mark.parametrize("radius", BAD_POSITIVE)
def test_matching_rejects_a_radius_that_is_not_finite_and_positive(radius):
    tracks = _one_person_tracks()
    gt = ground_truth_from_tracks(tracks)
    entries = gt.frames[0]
    for call in (lambda: match_frame(entries, entries, radius),
                 lambda: match_frame([], [], radius),
                 lambda: mota(gt, tracks, radius=radius),
                 lambda: matched_pose_pairs(gt, tracks, radius=radius),
                 lambda: matched_pose_pairs(ground_truth_from_tracks([]), tracks, radius=radius)):
        with pytest.raises(EvaluationError) as info:
            call()
        assert str(info.value) == RADIUS_MESSAGE


@pytest.fixture
def tracks_pair(tmp_path):
    path = tmp_path / "tracks.jsonl"
    write_tracks(path, _one_person_tracks(), skeleton_id=BASIC15.name, fps=20.0)
    return path


@pytest.mark.parametrize("metric", ["mota", "pck3d", "auc"])
@pytest.mark.parametrize("radius", ["nan", "inf", "-inf", "0"])
def test_eval_cli_rejects_a_bad_radius_with_exit_code_1(tracks_pair, capsys, metric, radius):
    argv = ["eval", "--tracks", str(tracks_pair), "--gt", str(tracks_pair),
            "--metric", metric, f"--radius={radius}"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {RADIUS_MESSAGE}\n"


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf", "0"])
def test_eval_cli_rejects_a_bad_tau_with_exit_code_1(tracks_pair, capsys, tau):
    argv = ["eval", "--tracks", str(tracks_pair), "--gt", str(tracks_pair),
            "--metric", "pck3d", f"--tau={tau}"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {TAU_MESSAGE}\n"


def test_eval_rejects_a_tracks_file_that_gives_one_id_two_poses_in_a_frame(tmp_path, capsys):
    scene, tracks = tmp_path / "scene", tmp_path / "tracks.jsonl"
    assert cli_main(["synth", "--scenario", "parallel_walk", "--seed", "7",
                     "--out-dir", str(scene)]) == 0
    assert cli_main(["track", "--detections", str(scene / "detections.jsonl"),
                     "--depth-dir", str(scene / "depth"), "--config", str(scene / "config.json"),
                     "--out", str(tracks)]) == 0
    header, first, second = tracks.read_text().splitlines()
    record = json.loads(second)
    assert record["id"] == 1
    tracks.write_text("\n".join([header, first, json.dumps({**record, "id": 0})]) + "\n")
    capsys.readouterr()
    for metric in ("mota", "pck3d", "auc"):
        argv = ["eval", "--tracks", str(tracks), "--gt", str(scene / "ground_truth.jsonl"),
                "--metric", metric]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: frame 0: duplicate track id 0\n"


@pytest.mark.parametrize("value", BAD_POSITIVE)
def test_lifting_config_rejects_a_min_thickness_that_is_not_finite_and_positive(value):
    with pytest.raises(ValidationError) as info:
        config_from_dict({"camera": CAMERA, "lifting": {"min_thickness": value}})
    assert str(info.value) == "LiftingConfig: min_thickness must be finite and > 0"


@pytest.mark.parametrize("field, value, message", [
    ("max_gap", 2.5, "max_gap must be an int >= 0"),
    ("max_gap", True, "max_gap must be an int >= 0"),
    ("max_gap", "3", "max_gap must be an int >= 0"),
    ("max_gap", -1, "max_gap must be an int >= 0"),
    ("predictor_window", 2.5, "predictor_window must be an int >= 1"),
    ("predictor_window", 2.0, "predictor_window must be an int >= 1"),
    ("predictor_window", False, "predictor_window must be an int >= 1"),
    ("predictor_window", None, "predictor_window must be an int >= 1"),
    ("predictor_window", 0, "predictor_window must be an int >= 1"),
])
def test_tracker_config_counts_must_be_ints(field, value, message):
    with pytest.raises(ValidationError) as info:
        config_from_dict({"camera": CAMERA, "tracker": {field: value}})
    assert str(info.value) == f"TrackerConfig: {message}"


def test_tracker_config_counts_accept_ints_at_their_bounds():
    cfg = config_from_dict({"camera": CAMERA, "tracker": {"max_gap": 0, "predictor_window": 1}})
    assert (cfg.tracker.max_gap, cfg.tracker.predictor_window) == (0, 1)


@pytest.mark.parametrize("patch", [4, 0, -1, -3, True, False, 5.7, 5.0, "5", None])
def test_lifting_config_checks_its_patch_when_built(patch):
    with pytest.raises(ValidationError) as info:
        LiftingConfig(patch=patch)
    assert str(info.value) == f"LiftingConfig: patch must be an odd int >= 1, got {patch!r}"


@pytest.mark.parametrize("patch", [1, 3, 7, 101])
def test_lifting_config_accepts_odd_int_patches(patch):
    assert LiftingConfig(patch=patch).patch == patch


@pytest.mark.parametrize("patch", [103, 4001])
def test_lifting_config_rejects_a_patch_over_its_maximum(patch):
    with pytest.raises(ValidationError) as info:
        LiftingConfig(patch=patch)
    assert str(info.value) == f"LiftingConfig: patch must be at most 101, got {patch}"


@pytest.fixture(scope="module")
def parallel_walk(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert cli_main(["synth", "--scenario", "parallel_walk", "--out-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("section, field, value, message", [
    ("tracker", "predictor_window", 2.5, "TrackerConfig: predictor_window must be an int >= 1"),
    ("tracker", "max_gap", True, "TrackerConfig: max_gap must be an int >= 0"),
    ("lifting", "min_thickness", math.nan,
     "LiftingConfig: min_thickness must be finite and > 0"),
    ("lifting", "patch", 4, "LiftingConfig: patch must be an odd int >= 1, got 4"),
    ("lifting", "patch", 4001, "LiftingConfig: patch must be at most 101, got 4001"),
    # A JSON bool or a numeric string is not a number.
    ("camera", "fx", True, "CameraModel: fx must be a number, got True"),
    ("camera", "cy", False, "CameraModel: cy must be a number, got False"),
    ("camera", "world_scale", True, "CameraModel: world_scale must be a number, got True"),
    (None, "fps", "20", "EngineConfig: fps must be a number, got '20'"),
    (None, "fps", True, "EngineConfig: fps must be a number, got True"),
    ("lifting", "min_thickness", True, "LiftingConfig: min_thickness must be a number, got True"),
    ("lifting", "depth_percentile", False,
     "LiftingConfig: depth_percentile must be a number, got False"),
    ("tracker", "iou_gate", True, "TrackerConfig: iou_gate must be a number, got True"),
    ("tracker", "min_track_score", False,
     "TrackerConfig: min_track_score must be a number, got False"),
    # The skeleton must be a string that names a known skeleton.
    (None, "skeleton", "nope", "unknown skeleton_id 'nope'"),
    (None, "skeleton", ["x"], "skeleton_id must be a string, got ['x']"),
])
def test_track_cli_rejects_bad_config_numbers_with_exit_code_1(
        parallel_walk, tmp_path, capsys, section, field, value, message):
    config = json.loads((parallel_walk / "config.json").read_text())
    (config.setdefault(section, {}) if section else config)[field] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    capsys.readouterr()
    argv = ["track", "--detections", str(parallel_walk / "detections.jsonl"),
            "--depth-dir", str(parallel_walk / "depth"), "--config", str(config_path),
            "--out", str(tmp_path / "tracks.jsonl")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {config_path}: {message}\n"
    assert not (tmp_path / "tracks.jsonl").exists()


@pytest.mark.parametrize("section, field", [("camera", "fx"), (None, "fps")])
def test_track_cli_on_a_config_integer_past_the_float_range_exits_1(
        parallel_walk, tmp_path, capsys, section, field):
    config = json.loads((parallel_walk / "config.json").read_text())
    (config[section] if section else config)[field] = HUGE
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    capsys.readouterr()
    argv = ["track", "--detections", str(parallel_walk / "detections.jsonl"),
            "--depth-dir", str(parallel_walk / "depth"), "--config", str(config_path),
            "--out", str(tmp_path / "tracks.jsonl")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {config_path}: int too large to convert to float\n"
    assert not (tmp_path / "tracks.jsonl").exists()


@pytest.mark.parametrize("skeleton", ["nope", ["x"], 5])
def test_track_cli_checks_the_config_skeleton_with_no_detections(
        parallel_walk, tmp_path, capsys, skeleton):
    config = json.loads((parallel_walk / "config.json").read_text())
    config["skeleton"] = skeleton
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    detections = tmp_path / "detections.jsonl"
    detections.write_text("")
    capsys.readouterr()
    argv = ["track", "--detections", str(detections), "--depth-dir", str(parallel_walk / "depth"),
            "--config", str(config_path), "--out", str(tmp_path / "tracks.jsonl")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {config_path}: ")
    assert not (tmp_path / "tracks.jsonl").exists()


def test_track_cli_names_the_detections_line_whose_frame_has_no_raster(
        parallel_walk, tmp_path, capsys):
    far = 10 ** 30
    lines = (parallel_walk / "detections.jsonl").read_text().splitlines()
    for index in (4, 7):  # lines 5 and 8: the first one is named
        record = json.loads(lines[index])
        record["frame"] = far
        lines[index] = json.dumps(record)
    detections = tmp_path / "detections.jsonl"
    detections.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = ["track", "--detections", str(detections), "--depth-dir", str(parallel_walk / "depth"),
            "--config", str(parallel_walk / "config.json"), "--out", str(tmp_path / "tracks.jsonl")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == (f"error: {detections}: line 5: frame {far}: missing depth "
                                       f"raster {parallel_walk / 'depth' / f'{far}.dpt'}\n")
    assert not (tmp_path / "tracks.jsonl").exists()
