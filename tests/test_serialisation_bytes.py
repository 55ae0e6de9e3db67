"""Exact bytes of the config file, the tracks-file header and the scenario
echo for one fixed, non-default config and scenario, so a change in how the
config dataclasses are serialised cannot reorder, rename or retype a key
unseen.  ``cx`` is an int on purpose: it must stay an int."""

import json

from pose3dtrack import __version__
from pose3dtrack.ingest import (
    CameraModel,
    EngineConfig,
    LifterSpec,
    LiftingConfig,
    MetricConfig,
    PredictorSpec,
    TrackerConfig,
    write_config,
)
from pose3dtrack.synth import PersonSpec, Scenario, scenario_to_dict
from pose3dtrack.tracking import write_tracks

CAMERA = CameraModel(fx=600.0, fy=610.5, cx=320, cy=240.25, world_scale=2.0)
CONFIG = EngineConfig(
    camera=CAMERA,
    fps=25.0,
    lifting=LiftingConfig(min_thickness=0.25, depth_percentile=2.0,
                          lifter=LifterSpec("depth_median", {"patch": 3})),
    tracker=TrackerConfig(iou_gate=0.2, max_gap=4, predictor_window=3,
                          association_mode="iou2d", min_track_score=0.5,
                          predictor=PredictorSpec("linear", {"window": 2})),
    metrics=MetricConfig(radius=0.4, tau=0.1),
)


def test_write_config_bytes(tmp_path):
    path = tmp_path / "config.json"
    write_config(path, CONFIG)
    assert path.read_text(encoding="utf-8") == """\
{
  "camera": {
    "fx": 600.0,
    "fy": 610.5,
    "cx": 320,
    "cy": 240.25,
    "world_scale": 2.0
  },
  "fps": 25.0,
  "skeleton": "basic15",
  "lifting": {
    "min_thickness": 0.25,
    "depth_percentile": 2.0,
    "lifter": {
      "name": "depth_median",
      "parameters": {
        "patch": 3
      }
    }
  },
  "tracker": {
    "iou_gate": 0.2,
    "max_gap": 4,
    "predictor_window": 3,
    "association_mode": "iou2d",
    "min_track_score": 0.5,
    "predictor": {
      "name": "linear",
      "parameters": {
        "window": 2
      }
    }
  },
  "metrics": {
    "radius": 0.4,
    "tau": 0.1
  }
}
"""


def test_write_tracks_header_bytes(tmp_path):
    path = tmp_path / "tracks.jsonl"
    write_tracks(path, [], skeleton_id="basic15", fps=25.0, tracker_cfg=CONFIG.tracker)
    assert path.read_text(encoding="utf-8") == (
        '{"header": {"kind": "tracks", "engine_version": "' + __version__ + '", '
        '"skeleton": "basic15", "fps": 25.0, "tracker": {"iou_gate": 0.2, '
        '"max_gap": 4, "predictor_window": 3, "association_mode": "iou2d", '
        '"min_track_score": 0.5, "predictor": "linear"}}}\n'
    )


def test_scenario_to_dict_bytes():
    sc = Scenario(
        name="pinned", frames=6, fps=12.5, camera=CAMERA, width=64, height=48,
        persons=(PersonSpec(((0, (0.0, 0.1, 3.0)), (5, (0.5, 0.1, 3.5))),
                            (0.5, 1.5, 0.25)),),
        dropouts=((0, 2, 4),), depth_noise=0.01, keypoint_noise=0.5, seed=3,
    )
    assert json.dumps(scenario_to_dict(sc)) == (
        '{"name": "pinned", "frames": 6, "fps": 12.5, "width": 64, "height": 48, '
        '"seed": 3, "camera": {"fx": 600.0, "fy": 610.5, "cx": 320, "cy": 240.25, '
        '"world_scale": 2.0}, "persons": [{"extent": [0.5, 1.5, 0.25], '
        '"waypoints": [[0, [0.0, 0.1, 3.0]], [5, [0.5, 0.1, 3.5]]]}], '
        '"dropouts": [[0, 2, 4]], "depth_noise": 0.01, "keypoint_noise": 0.5}'
    )
