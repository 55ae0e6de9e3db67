"""Rejecting branches of the data model, the metrics, the scenario model,
the tracker and the exporter: each raises its own error type with its own
message."""

import json
import math

import numpy as np
import pytest

from pose3dtrack.errors import EvaluationError, ParseError, ScenarioError, ValidationError
from pose3dtrack.export import export_scene
from pose3dtrack.geometry import Box3D
from pose3dtrack.ingest import (
    BASIC15,
    Box2D,
    CameraModel,
    DepthMap,
    FrameInput,
    Mask2D,
    SequenceInput,
    Skeleton,
    config_from_dict,
    encode_mask,
    load_config,
    load_depth,
    register_skeleton,
)
from pose3dtrack.metrics import GroundTruth, pck3d_rel
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.synth import PersonSpec, Scenario, scenario_from_dict
from pose3dtrack.tracking import (
    OBSERVED,
    PREDICTED,
    Track,
    TrackState,
    associate,
    predict,
)

CAMERA = {"fx": 600.0, "fy": 600.0, "cx": 320.0, "cy": 240.0}


def pose_at(x, y, z, conf=1.0):
    joints = np.tile([x, y, z, conf], (BASIC15.joint_count, 1)).astype(np.float64)
    return Pose3D(joints=joints, root_index=BASIC15.root_index, skeleton_id=BASIC15.name)


def message(error, call):
    with pytest.raises(error) as info:
        call()
    return str(info.value)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("indices", [[-1, 3], [0, 12], [12]])
def test_encode_mask_rejects_an_index_outside_the_frame(indices):
    assert message(ValidationError, lambda: encode_mask(indices, 4, 3)) \
        == "encode_mask: index out of bounds"


@pytest.mark.parametrize("width, height, text", [
    (0, 3, "Mask2D: non-positive dimensions"),
    (4, -1, "Mask2D: non-positive dimensions"),
    (2**32, 2**32, "Mask2D: 4294967296x4294967296 pixels exceed the int64 index range"),
])
def test_encode_mask_rejects_a_frame_mask2d_rejects(width, height, text):
    assert message(ValidationError, lambda: encode_mask([], width, height)) == text
    assert message(ValidationError, lambda: Mask2D(width, height, ())) == text


@pytest.mark.parametrize("width, height", [(0, 3), (4, 0), (-1, 3)])
def test_depth_map_rejects_non_positive_dimensions(width, height):
    values = np.ones((max(height, 1), max(width, 1)), dtype=np.float32)
    assert message(ValidationError, lambda: DepthMap(width, height, values)) \
        == "DepthMap: non-positive dimensions"


def test_depth_map_rejects_a_payload_of_another_shape():
    values = np.ones((4, 3), dtype=np.float32)
    assert message(ValidationError, lambda: DepthMap(4, 3, values)) \
        == "DepthMap: payload shape (4, 3) does not match 3x4"


@pytest.mark.parametrize("header", [b"DPTH 4\n", b"DPTH four 3\n", b"DPTH 4 3 2\n",
                                    b"\xff\xfe 4 3\n", b"\n"])
def test_load_depth_rejects_a_bad_header(tmp_path, header):
    path = tmp_path / "0.dpt"
    path.write_bytes(header + bytes(48))
    assert message(ParseError, lambda: load_depth(path)) \
        == f"{path}: bad depth header {header!r}"


@pytest.mark.parametrize("width, height", [(0, 3), (4, 0), (-4, -3)])
def test_load_depth_rejects_non_positive_dimensions(tmp_path, width, height):
    path = tmp_path / "0.dpt"
    path.write_bytes(f"DPTH {width} {height}\n".encode() + bytes(48))
    assert message(ParseError, lambda: load_depth(path)) \
        == f"{path}: non-positive dimensions {width}x{height}"


@pytest.mark.parametrize("order", [(0, 0), (2, 1)])
def test_sequence_input_rejects_frames_out_of_order(order):
    depth = DepthMap(2, 2, np.ones((2, 2), dtype=np.float32))
    frames = tuple(FrameInput(frame_index=i, detections=(), depth=depth) for i in order)
    assert message(ValidationError, lambda: SequenceInput(frames, CameraModel(**CAMERA))) \
        == "SequenceInput: frame_index not strictly increasing"


@pytest.mark.parametrize("section, field, value, text", [
    ("lifting", "depth_percentile", -0.5, "LiftingConfig: depth_percentile must be in [0, 50)"),
    ("lifting", "depth_percentile", 50.0, "LiftingConfig: depth_percentile must be in [0, 50)"),
    ("lifting", "depth_percentile", math.nan,
     "LiftingConfig: depth_percentile must be in [0, 50)"),
    ("tracker", "iou_gate", -0.1, "TrackerConfig: iou_gate outside [0, 1]"),
    ("tracker", "iou_gate", 1.5, "TrackerConfig: iou_gate outside [0, 1]"),
    ("tracker", "min_track_score", -0.1, "TrackerConfig: min_track_score outside [0, 1]"),
    ("tracker", "min_track_score", math.inf, "TrackerConfig: min_track_score outside [0, 1]"),
    ("trackr", "max_gap", 2, "config: unknown section 'trackr'"),
    ("metrics", "radius", 0.5, "config: unknown section 'metrics'"),
])
def test_config_rejects_values_out_of_range(section, field, value, text):
    assert message(ValidationError,
                   lambda: config_from_dict({"camera": CAMERA, section: {field: value}})) == text


def test_config_without_a_camera_section_is_rejected():
    assert message(ValidationError, lambda: config_from_dict({"fps": 20.0})) \
        == "config: missing required 'camera' section"


@pytest.mark.parametrize("section, old", [
    ("lifting", {"lifter": {"name": "depth_median", "parameters": {"patch": 5}}}),
    ("tracker", {"predictor": {"name": "linear", "parameters": {}}}),
])
def test_config_file_with_a_removed_lifter_or_predictor_key_is_rejected(tmp_path, section, old):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"camera": CAMERA, section: old}))
    text = message(ValidationError, lambda: load_config(path))
    assert text.startswith(f"{path}: ") and f"unexpected keyword argument {next(iter(old))!r}" in text


@pytest.mark.parametrize("text", ["[1, 2]", "5", "null", '"config"'])
def test_config_file_that_is_not_an_object_is_rejected(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert message(ParseError, lambda: load_config(path)) \
        == f"{path}: config must be a JSON object"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_ground_truth_rejects_a_duplicate_gt_id():
    entries = [(3, pose_at(0.0, 0.0, 3.0)), (3, pose_at(1.0, 0.0, 3.0))]
    assert message(EvaluationError, lambda: GroundTruth(frames={0: [], 7: entries})) \
        == "frame 7: duplicate gt_id"


def test_pck_without_pairs_is_rejected():
    assert message(EvaluationError, lambda: pck3d_rel([])) == "no matched pose pairs to score"


def test_pck_against_ground_truth_without_a_valid_joint_is_rejected():
    gt, pred = pose_at(0.0, 0.0, 3.0, conf=0.0), pose_at(0.0, 0.0, 3.0)
    assert message(EvaluationError, lambda: pck3d_rel([(gt, pred)])) \
        == "ground truth has no valid joints"


# ---------------------------------------------------------------------------
# pose3d
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("root_index", [-1, BASIC15.joint_count])
def test_pose_rejects_a_root_index_out_of_range(root_index):
    joints = pose_at(0.0, 0.0, 3.0).joints
    assert message(ValidationError, lambda: Pose3D(joints, root_index, BASIC15.name)) \
        == f"Pose3D: root_index {root_index} out of range"


@pytest.mark.parametrize("other", [None, 3, "pose", (14, "basic15")])
def test_pose_is_unequal_to_a_value_that_is_not_a_pose(other):
    pose = pose_at(0.0, 0.0, 3.0)
    assert pose.__eq__(other) is NotImplemented
    assert not pose == other
    assert pose != other


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def scenario(**changes):
    fields = dict(name="s", frames=4, fps=20.0, camera=CameraModel(**CAMERA),
                  width=64, height=48,
                  persons=(PersonSpec(((0, (0.0, 0.0, 3.0)),), (0.5, 1.0, 0.2)),))
    return Scenario(**{**fields, **changes})


@pytest.mark.parametrize("changes, text", [
    ({"frames": 0}, "scenario needs at least one frame"),
    ({"frames": -3}, "scenario needs at least one frame"),
    *[({"frames": frames}, f"scenario frames must be an int, got {frames!r}")
      for frames in (4.0, True, "4")],
    ({"frames": 2**28 // (64 * 48) + 1},
     "scenario of 87382 frames of 64x48 is over the 268435456-depth-value budget"),
    *[({"seed": seed}, f"scenario seed must be an int >= 0, got {seed!r}")
      for seed in (2.5, True, -1, "3")],
    *[({"dropouts": (dropout,)}, f"dropout values must be ints, got {dropout!r}")
      for dropout in ((0, 1.0, 2), (False, 0, 2), (0, 0, "2"))],
    ({"dropouts": ((1, 0, 2),)}, "dropout names unknown person 1"),
    ({"dropouts": ((-1, 0, 2),)}, "dropout names unknown person -1"),
    ({"persons": (PersonSpec((), (0.5, 1.0, 0.2)),)}, "person 0 has no waypoints"),
    ({"persons": (PersonSpec(((0, (0.0, 0.0, 3.0)),), (0.5, 1.0, 0.2)),
                  PersonSpec(((0, (0.0, math.nan, 3.0)),), (0.5, 1.0, 0.2)))},
     "person 1 has a non-finite waypoint"),
    *[({"fps": fps}, "scenario fps must be finite and > 0")
      for fps in (0.0, -20.0, math.nan, math.inf)],
    *[({side: size}, "scenario width and height must be ints > 0")
      for side in ("width", "height") for size in (-5, 0, 64.0, True)],
    ({"width": 2**12 + 1, "height": 2**12},
     "scenario frame 4097x4096 is over the 16777216-pixel budget"),
    ({"width": 2**40, "height": 1},
     "scenario frame 1099511627776x1 is over the 16777216-pixel budget"),
    *[({field: value}, "scenario noise must be finite and >= 0")
      for field in ("depth_noise", "keypoint_noise") for value in (-0.1, math.nan, math.inf)],
    *[({"persons": (PersonSpec(((0, (0.0, 0.0, 3.0)), (2, point)), (0.5, 1.0, 0.2)),)},
       "person 0 has a waypoint without 3 coordinates")
      for point in ((0.0, 3.0), (), (0.0, 0.0, 3.0, 1.0))],
    ({"persons": (PersonSpec(((0, (0.0, 0.0, 3.0)), (3, (0.0, 0.0, 3.0)),
                              (2, (0.0, 0.0, 3.0))), (0.5, 1.0, 0.2)),)},
     "person 0 has waypoint frames that decrease"),
    *[({"persons": (PersonSpec(((0, (0.0, 0.0, 3.0)), (frame, (0.0, 0.0, 3.0))),
                               (0.5, 1.0, 0.2)),)},
       f"person 0 waypoint frame must be an int, got {frame!r}")
      for frame in (2.0, True, "2")],
    *[({"persons": (PersonSpec(((0, (0.0, 0.0, 3.0)),), extent),)},
       "person 0 extent must be 3 finite values, w and h > 0, d >= 0")
      for extent in ((0.5, 1.0), (0.5, 1.0, 0.2, 0.1), (0.0, 1.0, 0.2), (0.5, -1.0, 0.2),
                     (0.5, 1.0, -0.1), (0.5, 1.0, math.nan), (math.inf, 1.0, 0.2))],
])
def test_scenario_rejects_each_invalid_field(changes, text):
    assert message(ScenarioError, lambda: scenario(**changes)) == text


def test_scenario_accepts_a_repeated_waypoint_frame_and_a_flat_body():
    person = PersonSpec(((0, (0.0, 0.0, 3.0)), (0, (0.0, 0.0, 3.0))), (0.5, 1.0, 0.0))
    assert scenario(persons=(person,), width=2**12, height=2**12).persons == (person,)


def test_scenario_accepts_frames_up_to_the_depth_budget():
    assert scenario(frames=2**28 // (64 * 48)).frames == 87381


def scenario_dict(waypoint_frame=0, **changes):
    return {"frames": 4, "width": 64, "height": 48,
            "camera": {"fx": 60.0, "fy": 60.0, "cx": 32.0, "cy": 24.0},
            "persons": [{"extent": [0.5, 1.0, 0.2],
                         "waypoints": [[waypoint_frame, [0.0, 0.0, 3.0]]]}],
            **changes}


@pytest.mark.parametrize("changes, text", [
    ({"width": 64.9}, "scenario width and height must be ints > 0"),
    ({"height": True}, "scenario width and height must be ints > 0"),
    ({"seed": 2.5}, "scenario seed must be an int >= 0, got 2.5"),
    ({"dropouts": [[0, 1, 2.5]]}, "dropout values must be ints, got (0, 1, 2.5)"),
    ({"waypoint_frame": 0.7}, "person 0 waypoint frame must be an int, got 0.7"),
])
def test_scenario_from_dict_takes_ints_only_as_json_ints(changes, text):
    assert message(ScenarioError, lambda: scenario_from_dict(scenario_dict(**changes))) == text


def test_scenario_from_an_empty_object_names_the_missing_key():
    assert message(ScenarioError, lambda: scenario_from_dict({})) \
        == "malformed scenario spec: 'persons'"


# ---------------------------------------------------------------------------
# tracking
# ---------------------------------------------------------------------------

def test_associate_rejects_an_unknown_mode():
    box = Box3D(0.0, 1.0, 0.0, 1.0, 2.0, 3.0)
    assert message(ValidationError, lambda: associate([box], [box], 0.3, mode="iou4d")) \
        == "unknown association mode 'iou4d'"


def test_predict_needs_an_observed_state():
    track = Track(track_id=0, birth_frame=0, states=[
        TrackState(0, PREDICTED, Box3D(0.0, 1.0, 0.0, 1.0, 2.0, 3.0), pose_at(0.5, 0.5, 2.5))])
    assert message(ValidationError, lambda: predict(track, 5, 1)) \
        == "predict: track has no observed state"


def test_prediction_of_a_narrowing_2d_box_keeps_the_last_observed_2d_box():
    # x extents [0, 30], [6, 24], [9, 21] fit to [14, 16] at frame 3 and to
    # the inverted [18.5, 11.5] at frame 4, while the 3D box stays valid.
    track = Track(track_id=0, birth_frame=0)
    for frame, (x0, x1) in enumerate([(0.0, 30.0), (6.0, 24.0), (9.0, 21.0)]):
        track.states.append(TrackState(frame, OBSERVED, Box3D(0.0, 1.0, 0.0, 1.0, 2.0, 3.0),
                                       pose_at(0.5, 0.5, 2.5), box2d=Box2D(x0, 0.0, x1, 10.0)))
    assert predict(track, 5, 3)[2] == Box2D(14.0, 0.0, 16.0, 10.0)
    box3d, _, box2d = predict(track, 5, 4)
    assert box2d is track.states[-1].box2d
    assert box3d == Box3D(0.0, 1.0, 0.0, 1.0, 2.0, 3.0)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_rejects_poses_of_another_joint_count():
    register_skeleton(Skeleton(name="tiny3", joint_names=("a", "b", "c"), root_index=0))
    track = Track(track_id=4, birth_frame=0, states=[
        TrackState(0, OBSERVED, Box3D(0.0, 1.0, 0.0, 1.0, 2.0, 3.0), pose_at(0.5, 0.5, 2.5))])
    assert message(ValidationError, lambda: export_scene([track], fps=20.0, skeleton_id="tiny3")) \
        == "track 4: pose has 15 joints, skeleton 'tiny3' expects 3"
