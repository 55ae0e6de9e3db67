"""Exact bytes of the config file, the tracks-file header, the scenario
echo and the scene document for one fixed, non-default config, scenario and
scene, so a change in how they are serialised cannot reorder, rename, retype
or re-indent a key unseen.  ``cx`` is an int on purpose: it must stay an
int, and so must the int64 joints of the scene's second actor."""

import json

import numpy as np

from pose3dtrack import __version__
from pose3dtrack.export import Actor, ActorSample, SceneDocument, write_scene
from pose3dtrack.ingest import (
    CameraModel,
    EngineConfig,
    LiftingConfig,
    TrackerConfig,
    write_config,
)
from pose3dtrack.synth import PersonSpec, Scenario, scenario_to_dict
from pose3dtrack.tracking import write_tracks

CAMERA = CameraModel(fx=600.0, fy=610.5, cx=320, cy=240.25, world_scale=2.0)
CONFIG = EngineConfig(
    camera=CAMERA,
    fps=25.0,
    lifting=LiftingConfig(min_thickness=0.25, depth_percentile=2.0, patch=3),
    tracker=TrackerConfig(iou_gate=0.2, max_gap=4, predictor_window=3,
                          association_mode="iou2d", min_track_score=0.5),
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
    "patch": 3
  },
  "tracker": {
    "iou_gate": 0.2,
    "max_gap": 4,
    "predictor_window": 3,
    "association_mode": "iou2d",
    "min_track_score": 0.5
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


SCENE = SceneDocument(
    fps=12.5, skeleton_id="basic15", engine_version="9.8.7",
    actors=(
        Actor(actor_id=1, birth_frame=0, samples=(
            ActorSample(0, "observed", np.array([[0.5, -0.0, 1e-7], [1e16, 2.0, -3.25]])),
            ActorSample(1, "predicted", np.array([[0.75, -0.0, 1e-7], [1e16, 2.5, -3.5]])),
        )),
        Actor(actor_id=4, birth_frame=3, samples=(
            ActorSample(3, "observed", np.array([[1, -2, 3], [0, 5, -6]], dtype=np.int64)),
        )),
    ),
)


def test_write_scene_bytes(tmp_path):
    path = tmp_path / "scene.json"
    write_scene(path, SCENE)
    assert path.read_text(encoding="utf-8") == """\
{
  "metadata": {
    "fps": 12.5,
    "skeleton": "basic15",
    "units": "meters",
    "engine_version": "9.8.7"
  },
  "actors": [
    {
      "id": 1,
      "birth": 0,
      "samples": [
        {
          "frame": 0,
          "state": "observed",
          "joints": [
            [
              0.5,
              -0.0,
              1e-07
            ],
            [
              1e+16,
              2.0,
              -3.25
            ]
          ]
        },
        {
          "frame": 1,
          "state": "predicted",
          "joints": [
            [
              0.75,
              -0.0,
              1e-07
            ],
            [
              1e+16,
              2.5,
              -3.5
            ]
          ]
        }
      ]
    },
    {
      "id": 4,
      "birth": 3,
      "samples": [
        {
          "frame": 3,
          "state": "observed",
          "joints": [
            [
              1,
              -2,
              3
            ],
            [
              0,
              5,
              -6
            ]
          ]
        }
      ]
    }
  ]
}
"""


def test_write_scene_without_actors_bytes(tmp_path):
    path = tmp_path / "scene.json"
    write_scene(path, SceneDocument(fps=30.0, skeleton_id="basic15", engine_version="9.8.7",
                                    actors=()))
    assert path.read_text(encoding="utf-8") == """\
{
  "metadata": {
    "fps": 30.0,
    "skeleton": "basic15",
    "units": "meters",
    "engine_version": "9.8.7"
  },
  "actors": []
}
"""
