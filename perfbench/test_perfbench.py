"""Tests of the benchmark itself, on tiny inputs.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math

import pytest

from checkout import ROOT, use_checkout_source

use_checkout_source()

import bench  # noqa: E402
import spans  # noqa: E402
from pose3dtrack import pose3d, tracking  # noqa: E402
from workloads import TUNING_SEED  # noqa: E402

TINY = {
    "crowd": {"frames": 12, "people": 3},
    "wide_sparse": {"frames": 12, "people": 2},
    "replay": {"frames": 40, "people": 6},
}


def tiny_run(workload: str, trace: bool) -> dict:
    return bench.run_workload(workload, TUNING_SEED, seconds=0, trace=trace,
                              sizes=TINY[workload])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    report = tiny_run(workload, trace=False)
    assert report["correct"], report["errors"] + report["problems"]
    assert report["failed"] == 0
    assert report["sets"] >= bench.MIN_SETS
    assert set(report["metrics"]) == set(bench.END_TO_END)
    for name, metric in report["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
        assert metric["unit"] == bench.END_TO_END[name]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_call_counts_repeat_exactly(workload):
    first, second = tiny_run(workload, trace=True), tiny_run(workload, trace=True)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(bench.per_layer_units())
    calls = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
             for r in (first, second)]
    assert calls[0] == calls[1]
    assert first["tracks_sha256"] == second["tracks_sha256"]

    frames = TINY[workload]["frames"]
    values = {k: m["value"] for k, m in first["metrics"].items()}
    if workload == "replay":
        for name in ("pose3d.lift_pose.calls", "geometry.lift_box.calls",
                     "ingest.load_depth.calls", "synth.generate.s"):
            assert values[name] == 0, name
    else:
        assert values["ingest.load_depth.calls"] == frames
        assert values["pose3d.lift_pose.calls"] == first["detections"]
    assert values["tracking.step.calls"] == frames
    assert values["trace.track_coverage"] >= 0.9


def test_tracing_does_not_change_output():
    untraced, traced = tiny_run("crowd", trace=False), tiny_run("crowd", trace=True)
    assert untraced["tracks_sha256"] == traced["tracks_sha256"]
    assert untraced["scene_sha256"] == traced["scene_sha256"]


def test_every_trace_target_exists():
    for name, owner, attr in spans.TRACK_TARGETS + spans.SETUP_TARGETS:
        assert callable(getattr(owner, attr, None)), name


def test_renamed_target_fails_loudly_and_restores_patches(monkeypatch):
    original_step = tracking.Tracker.step
    monkeypatch.delattr(pose3d, "lift_pose")
    with pytest.raises(spans.MissingTarget, match="lift_pose"):
        with spans.SpanRecorder().installed(spans.TRACK_TARGETS):
            pass
    assert tracking.Tracker.step is original_step


def test_self_time_excludes_children():
    recorder = spans.SpanRecorder()

    def inner():
        return sum(range(20000))

    traced_inner = recorder.wrap("inner", inner)
    traced_outer = recorder.wrap("outer", lambda: [traced_inner() for _ in range(3)])
    traced_outer()
    layers = recorder.layers()
    assert layers["outer"].calls == 1 and layers["inner"].calls == 3
    assert layers["outer"].s >= layers["inner"].s
    assert layers["outer"].self_s == pytest.approx(layers["outer"].s - layers["inner"].s)
    assert [span[3] for span in recorder.spans] == [-1, 0, 0, 0]


def test_benchmark_json_matches_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
