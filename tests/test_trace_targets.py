"""The benchmark's per-layer trace (``perfbench/spans.py``) patches engine
functions where their callers look them up.  Every such name must still
resolve, and the engine must still call through it, so that deleting,
renaming or bypassing one fails here, not only in a later traced benchmark
run."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from pose3dtrack import geometry, ingest, pose3d, tracking
from pose3dtrack.ingest import TrackerConfig, load_sequence
from pose3dtrack.synth import builtin, write_scenario_bundle

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    """Import spans.py from its path without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


_spans = _load_spans()
TARGETS = _spans.TRACK_TARGETS + _spans.SETUP_TARGETS


@pytest.mark.parametrize("name, owner, attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for _, owner, attr in TARGETS])
def test_trace_target_resolves(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name}) is gone"


def test_run_sequence_calls_through_the_patched_names(tmp_path, monkeypatch):
    calls = Counter()

    def counting(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    scenario = builtin("full_occlusion")
    write_scenario_bundle(scenario, tmp_path)
    seq = load_sequence(tmp_path / "detections.jsonl", tmp_path / "depth", scenario.camera)
    counting(ingest, "load_depth")  # called on the loader's worker thread
    counting(pose3d, "lift_poses")
    counting(geometry, "depth_extrema")
    counting(tracking, "lift_box")
    counting(tracking, "predict")
    for attr in ("associate", "assign_by_iou", "iou3d_matrix"):
        counting(tracking, attr)
    tracks = tracking.run_sequence(seq, TrackerConfig())
    detections = sum(len(frame.detections) for frame in seq.frames)
    predicted = sum(s.kind == tracking.PREDICTED for t in tracks for s in t.states)
    assert detections > 0 and predicted > 0
    frames = len(seq.frames)
    assert calls == {"load_depth": frames, "lift_poses": frames, "depth_extrema": detections,
                     "lift_box": detections, "predict": predicted, "associate": frames,
                     "assign_by_iou": frames, "iou3d_matrix": frames}
