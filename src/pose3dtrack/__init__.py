"""3D multi-person pose lifting and tracking from 2D detections and depth maps."""

__version__ = "0.1.0"

from .errors import (
    EmptySupportError,
    EvaluationError,
    ParseError,
    PoseTrackError,
    ScenarioError,
    SequencingError,
    ValidationError,
)
from .ingest import (
    Box2D,
    CameraModel,
    Detection,
    DepthMap,
    EngineConfig,
    Keypoints2D,
    LiftingConfig,
    Mask2D,
    SequenceInput,
    TrackerConfig,
    encode_mask,
    load_config,
    load_depth,
    load_sequence,
    parse_detections,
    write_depth,
)
from .geometry import Box3D, depth_extrema, iou2d, iou3d, lift_box
from .pose3d import Pose3D, lift_pose, lift_poses
from .tracking import (
    Track,
    Tracker,
    TrackState,
    associate,
    predict,
    read_tracks,
    run_sequence,
    write_tracks,
)
from .metrics import GroundTruth, MotReport, PckReport, auc_rel, match_frame, mota, pck3d_rel
from .synth import Scenario, builtin, generate
from .export import SceneDocument, export_scene, read_scene, write_scene

__all__ = [
    "__version__",
    "Box2D", "Box3D", "CameraModel", "Detection", "DepthMap", "EngineConfig",
    "GroundTruth", "Keypoints2D", "LiftingConfig", "Mask2D", "MotReport",
    "PckReport", "Pose3D", "Scenario", "SceneDocument", "SequenceInput",
    "Track", "Tracker", "TrackerConfig", "TrackState",
    "associate", "auc_rel", "builtin", "depth_extrema",
    "encode_mask", "export_scene", "generate", "iou2d", "iou3d", "lift_box",
    "lift_pose", "lift_poses", "load_config", "load_depth", "load_sequence",
    "match_frame", "mota", "parse_detections", "pck3d_rel", "predict",
    "read_scene", "read_tracks", "run_sequence", "write_depth", "write_scene",
    "write_tracks",
    "EmptySupportError", "EvaluationError", "ParseError", "PoseTrackError",
    "ScenarioError", "SequencingError", "ValidationError",
]
