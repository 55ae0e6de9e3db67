"""Closed-loop measurement of the track, eval and export operations.

One client in one process runs one operation at a time.  A *set* is one
track, one eval and one export over the same inputs; a run repeats sets
until its time is up.  Set-up (building the inputs) is timed separately and
repeated, because later changes must not hide work in it.

Untraced sets carry a single probe, the time each ``Tracker.step`` returns,
which gives per-frame latency.  Traced sets wrap the engine's public
functions (see ``spans``) and give the per-layer split; traced and untraced
sets alternate so the tracing overhead is their difference.  Between
operations the run times a fixed reference kernel, and every reported time
is scaled by it (see ``Speed``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pose3dtrack import export, ingest, metrics, tracking
from pose3dtrack.ingest import BASIC15

import workloads
from checkout import ROOT
from spans import TRACK_TARGETS, SpanRecorder

WORKLOADS = ("crowd", "wide_sparse", "replay")
SETUPS = 3  # set-up repeats per run; setup_s is their median
MIN_SETS = 3  # untraced sets per run, and traced sets with --trace 1
RADIUS = 0.5  # eval match radius, meters (the CLI default)
TAU = 0.15  # PCK threshold, meters (the CLI default)
REF_S = 0.05  # nominal reference() time that reported times are scaled to
RENDER = Path(__file__).with_name("render.py")
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

# End-to-end metrics reported with --trace 0: name -> unit.
END_TO_END = {
    "track_ms_per_det": "ms",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "eval_s": "s",
    "export_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mota": "ratio",
    "pck_rel": "%",
    "auc_rel": "%",
    "ops_ok_frac": "ratio",
}

# Per-layer metrics reported with --trace 1: span name -> fields.
LAYER_FIELDS = {
    "pose3d.lift_pose": ("s", "self_s", "calls"),
    "geometry.lift_box": ("s", "self_s", "calls"),
    "geometry.depth_extrema": ("s", "calls"),
    "ingest.mask_indices": ("s", "calls"),
    "ingest.load_depth": ("s", "calls"),
    "ingest.parse_detections": ("s",),
    "ingest.load_sequence": ("self_s",),
    "tracking.run_sequence": ("self_s",),
    "tracking.step": ("s", "self_s", "calls"),
    "tracking.associate": ("s",),
    "tracking.iou3d_matrix": ("s",),
    "tracking.assign_by_iou": ("s",),
    "tracking.predict": ("s", "calls"),
    "tracking.write_tracks": ("s",),
    "tracking.read_tracks": ("s",),
    "metrics.mota": ("s",),
    "metrics.matched_pose_pairs": ("s",),
    "metrics.match_frame": ("s", "calls"),
    "metrics.pck3d_rel": ("s", "calls"),
    "metrics.auc_rel": ("s",),
    "export.export_scene": ("s",),
    "export.write_scene": ("s",),
    "synth.generate": ("s",),
    "ingest.encode_mask": ("s",),
}
FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count"}

# Per-layer metrics computed from the run rather than read off one span.
DERIVED_LAYER = {
    "ingest.load_depth.mb": "MB",
    "tracking.tracks": "count",
    "tracking.states_observed": "count",
    "tracking.states_predicted": "count",
    "trace.track_ms_per_det": "ms",
    "trace.overhead_ms_per_det": "ms",
    "trace.track_coverage": "ratio",
    "trace.ref_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{f}": FIELD_UNITS[f]
             for name, fields in LAYER_FIELDS.items() for f in fields}
    units.update(DERIVED_LAYER)
    return units


def reference() -> float:
    """Time a fixed kernel that uses no engine code: small NumPy calls,
    interpreter loops and JSON, the same mix the engine spends its time on.

    The shared machine's speed drifts by up to 2x over seconds to minutes,
    often for longer than a whole benchmark run.  Each run times this kernel
    between operations (see ``Speed``), so a slow phase cancels while a
    slower engine does not.
    """
    table = np.random.default_rng(0).random((64, 64))
    counts: dict[int, int] = {}
    start = time.perf_counter()
    total = 0.0
    for i in range(2000):
        total += float(np.median(table[i % 64]))
        counts[i % 97] = counts.get(i % 97, 0) + i
    decoded = json.loads(json.dumps(table.tolist()))
    words = sorted(str(i * 7919 % 1000) for i in range(10000))
    elapsed = time.perf_counter() - start
    if not (total > 0 and len(decoded) == 64 and len(words) == 10000):
        raise RuntimeError("reference kernel computed the wrong result")
    return elapsed


class Speed:
    """Reference kernel times in the order they were taken.

    The kernel runs before every timed operation and once after the last,
    so each operation lies between two marks.  Its time is reported
    multiplied by ``REF_S`` over the mean of those two kernel times: the
    time the operation would take if the kernel took ``REF_S``.
    """

    def __init__(self) -> None:
        self.refs: list[float] = []

    def mark(self) -> int:
        self.refs.append(reference())
        return len(self.refs) - 1

    def scale(self, mark: int, end: int | None = None) -> float:
        """Scale for the work between ``mark`` and ``end`` (the next mark)."""
        end = mark + 1 if end is None else end
        return 2.0 * REF_S / (self.refs[mark] + self.refs[end])


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    gt_path: Path
    bundle: Path | None = None  # file workloads: the rendered bundle
    replay: workloads.Replay | None = None
    depth_file_bytes: int = 0


def setup(workload: str, seed: int, work: Path, trace: bool, sizes: dict,
          speed: Speed) -> tuple[Inputs, list[tuple[float, float]], list[dict]]:
    """Build the inputs SETUPS times; returns the last build, each build's
    (time, scale) and, when tracing, each build's set-up layers."""
    times, marks, layers = [], [], []
    if workload == "replay":
        gt_path = work / "ground_truth.jsonl"
        for _ in range(SETUPS):
            data = None  # free the previous build first
            marks.append(speed.mark())
            start = time.perf_counter()
            data = workloads.replay(seed, **sizes)
            tracking.write_tracks(gt_path, list(data.ground_truth),
                                  skeleton_id=BASIC15.name, fps=workloads.FPS,
                                  kind="ground_truth")
            times.append(time.perf_counter() - start)
            layers.append({})
        speed.mark()
        return (Inputs(gt_path, replay=data),
                [(t, speed.scale(m)) for t, m in zip(times, marks)], layers)

    bundle = work / "bundle"
    cmd = [sys.executable, str(RENDER), "--workload", workload,
           "--seed", str(seed), "--out", str(bundle)]
    cmd += [f"--{k}={v}" for k, v in sorted(sizes.items())]
    if trace:
        cmd.append("--trace")
    for _ in range(SETUPS):
        shutil.rmtree(bundle, ignore_errors=True)
        marks.append(speed.mark())
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(report["setup_s"])
        layers.append(report["layers"])
    speed.mark()
    depth_file = next((bundle / "depth").glob("*.dpt"))
    return (Inputs(bundle / "ground_truth.jsonl", bundle=bundle,
                   depth_file_bytes=depth_file.stat().st_size),
            [(t, speed.scale(m)) for t, m in zip(times, marks)], layers)


# ---------------------------------------------------------------------------
# Operations (the same calls the CLI makes)
# ---------------------------------------------------------------------------

def track_files(bundle: Path, out: Path, stamps: list[float]) -> tuple[list, int]:
    """``pose3dtrack track``: returns (tracks, detections)."""
    cfg = ingest.load_config(bundle / "config.json")
    seq = ingest.load_sequence(bundle / "detections.jsonl", bundle / "depth", cfg.camera,
                               fps=cfg.fps, skeleton_id=cfg.skeleton_id)
    stamps.append(time.perf_counter())
    tracks = tracking.run_sequence(seq, cfg.tracker, lifting=cfg.lifting)
    tracking.write_tracks(out, tracks, skeleton_id=cfg.skeleton_id, fps=cfg.fps,
                          tracker_cfg=cfg.tracker)
    return tracks, sum(len(frame.detections) for frame in seq.frames)


def track_replay(data: workloads.Replay, out: Path, stamps: list[float]) -> tuple[list, int]:
    """Fold pre-lifted frames through the tracker and write the tracks."""
    tracker = tracking.Tracker(data.tracker)
    stamps.append(time.perf_counter())
    for frame_index, items in enumerate(data.frames):
        tracker.step(frame_index, items)
    tracks = tracker.finalize()
    tracking.write_tracks(out, tracks, skeleton_id=BASIC15.name, fps=workloads.FPS,
                          tracker_cfg=data.tracker)
    return tracks, data.detections


def evaluate(tracks_path: Path, gt_path: Path):
    """``pose3dtrack eval`` for all three metrics over one read of each file."""
    header, predicted = tracking.read_tracks(tracks_path)
    gt_header, gt_tracks = tracking.read_tracks(gt_path)
    gt = metrics.ground_truth_from_tracks(gt_tracks,
                                          skeleton_id=gt_header.get("skeleton", "basic15"))
    mot = metrics.mota(gt, predicted, radius=RADIUS)
    pairs = metrics.matched_pose_pairs(gt, predicted, radius=RADIUS)
    pck = metrics.pck3d_rel(pairs, tau=TAU)
    auc = metrics.auc_rel(pairs)
    return header, predicted, (mot.mota, pck.pck_rel, auc)


def export_tracks(header: dict, predicted: list, out: Path):
    """``pose3dtrack export`` on tracks already read back by eval."""
    doc = export.export_scene(predicted, fps=float(header.get("fps", 30.0)),
                              skeleton_id=header.get("skeleton", "basic15"))
    export.write_scene(out, doc)
    return doc


@contextlib.contextmanager
def frame_probe(stamps: list[float]):
    """Append the time each Tracker.step returns to ``stamps``."""
    original = tracking.Tracker.step

    def step(self, frame_index, items):
        original(self, frame_index, items)
        stamps.append(time.perf_counter())

    tracking.Tracker.step = step
    try:
        yield
    finally:
        tracking.Tracker.step = original


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def state_counts(tracks) -> dict[str, int]:
    return {
        "tracks": len(tracks),
        "states_observed": sum(1 for t in tracks for s in t.states if s.kind == tracking.OBSERVED),
        "states_predicted": sum(1 for t in tracks for s in t.states if s.kind == tracking.PREDICTED),
    }


def check_read_back(written, read) -> None:
    if len(written) != len(read):
        raise CheckFailed(f"tracks file reads back {len(read)} tracks, wrote {len(written)}")
    for a, b in zip(written, read):
        if (a.track_id, a.birth_frame, len(a.states)) != (b.track_id, b.birth_frame, len(b.states)):
            raise CheckFailed(f"track {a.track_id} does not read back")
        for s, r in zip(a.states, b.states):
            if ((s.frame_index, s.kind) != (r.frame_index, r.kind)
                    or not np.array_equal(s.box3d.as_array(), r.box3d.as_array())
                    or not np.array_equal(s.pose3d.joints, r.pose3d.joints)):
                raise CheckFailed(f"track {a.track_id} frame {s.frame_index} does not read back")


def check_scene(doc, path: Path, counts: dict[str, int]) -> None:
    back = export.read_scene(path)
    if (back.fps, back.skeleton_id, back.units, len(back.actors)) != (
            doc.fps, doc.skeleton_id, doc.units, len(doc.actors)):
        raise CheckFailed("scene metadata does not read back")
    for a, b in zip(doc.actors, back.actors):
        if ((a.actor_id, a.birth_frame, len(a.samples)) != (b.actor_id, b.birth_frame, len(b.samples))
                or any((s.frame, s.state) != (r.frame, r.state)
                       or not np.array_equal(s.joints, r.joints)
                       for s, r in zip(a.samples, b.samples))):
            raise CheckFailed(f"scene actor {a.actor_id} does not read back")
    samples = sum(len(a.samples) for a in doc.actors)
    if len(doc.actors) != counts["tracks"] or samples != (
            counts["states_observed"] + counts["states_predicted"]):
        raise CheckFailed(f"scene has {len(doc.actors)} actors and {samples} samples "
                          f"for state counts {counts}")


def check_counts(inputs: Inputs, counts: dict[str, int], detections: int) -> None:
    # Every detection scores 1.0, so each one becomes exactly one observed state.
    if counts["states_observed"] != detections:
        raise CheckFailed(f"{counts['states_observed']} observed states "
                          f"for {detections} detections")
    data = inputs.replay
    if data is not None and (counts["tracks"], counts["states_predicted"]) != (
            data.expected_tracks, data.expected_predicted):
        raise CheckFailed(f"replay gave {counts['tracks']} tracks and "
                          f"{counts['states_predicted']} predicted states, expected "
                          f"{data.expected_tracks} and {data.expected_predicted}")


# ---------------------------------------------------------------------------
# Sets
# ---------------------------------------------------------------------------

@dataclass
class SetResult:
    traced: bool
    detections: int
    track_s: float
    frame_ms: list[float]
    tracks_sha: str
    counts: dict[str, int]
    eval_s: float | None = None
    accuracy: tuple[float, float, float] | None = None
    export_s: float | None = None
    scene_sha: str | None = None
    layers: dict = field(default_factory=dict)
    coverage: float | None = None
    spans: list = field(default_factory=list)
    marks: dict[str, int] = field(default_factory=dict)  # operation -> Speed mark

    @property
    def track_ms_per_det(self) -> float:
        return 1000.0 * self.track_s / self.detections


class Run:
    def __init__(self, inputs: Inputs, work: Path, speed: Speed):
        self.inputs = inputs
        self.tracks_path = work / "tracks.jsonl"
        self.scene_path = work / "scene.json"
        self.sets: list[SetResult] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_mb: float | None = None
        self.speed = speed

    def _fail(self, op: str, exc: Exception) -> None:
        self.failed += 1
        message = f"{op} failed: {exc}"
        self.errors.append(message)
        sys.stderr.write(message + "\n")
        if not isinstance(exc, CheckFailed):
            traceback.print_exception(exc, file=sys.stderr)

    def one_set(self, traced: bool) -> None:
        recorder = SpanRecorder()
        stamps: list[float] = []
        first = self.sets[0] if self.sets else None
        marks = {}
        with (recorder.installed(TRACK_TARGETS) if traced else frame_probe(stamps)):
            marks["track"] = self.speed.mark()
            self.attempted += 1
            try:
                with recorder.span("op.track"):
                    start = time.perf_counter()
                    if self.inputs.replay is not None:
                        tracks, detections = track_replay(self.inputs.replay, self.tracks_path, stamps)
                    else:
                        tracks, detections = track_files(self.inputs.bundle, self.tracks_path, stamps)
                    track_s = time.perf_counter() - start
                if self.peak_rss_mb is None:
                    self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                result = SetResult(traced, detections, track_s,
                                   [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])],
                                   sha256(self.tracks_path), state_counts(tracks), marks=marks)
                if first is not None and result.tracks_sha != first.tracks_sha:
                    raise CheckFailed("tracks digest differs from the first set's")
                check_counts(self.inputs, result.counts, detections)
            except Exception as exc:  # the loop goes on; the failure is counted
                self._fail("track", exc)
                return

            marks["eval"] = self.speed.mark()
            self.attempted += 1
            try:
                with recorder.span("op.eval"):
                    start = time.perf_counter()
                    header, predicted, accuracy = evaluate(self.tracks_path, self.inputs.gt_path)
                    result.eval_s = time.perf_counter() - start
                result.accuracy = accuracy
                check_read_back(tracks, predicted)
                if first is not None and accuracy != first.accuracy:
                    raise CheckFailed(f"accuracy {accuracy} differs from the first set's "
                                      f"{first.accuracy}")
            except Exception as exc:
                self._fail("eval", exc)
                return

            marks["export"] = self.speed.mark()
            self.attempted += 1
            try:
                with recorder.span("op.export"):
                    start = time.perf_counter()
                    doc = export_tracks(header, predicted, self.scene_path)
                    result.export_s = time.perf_counter() - start
                result.scene_sha = sha256(self.scene_path)
                if first is None:
                    check_scene(doc, self.scene_path, result.counts)
                elif result.scene_sha != first.scene_sha:
                    raise CheckFailed("scene digest differs from the first set's")
            except Exception as exc:
                self._fail("export", exc)
                return

        if traced:
            result.layers = recorder.layers()
            result.coverage = recorder.coverage("op.track")
            result.spans = recorder.spans
        self.sets.append(result)

    def measure(self, seconds: float, trace: bool) -> None:
        """Run sets until ``seconds`` have passed and each kind has MIN_SETS."""
        deadline = time.perf_counter() + seconds
        kinds = (False, True) if trace else (False,)
        turn = 0
        while True:
            done = [sum(1 for s in self.sets if s.traced == k) for k in kinds]
            if time.perf_counter() >= deadline and (min(done) >= MIN_SETS or self.failed):
                self.speed.mark()
                return
            self.one_set(kinds[turn % len(kinds)])
            turn += 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(samples: list[float], p: int) -> float:
    """The p-th percentile (1..99) by the method of statistics.quantiles."""
    return statistics.quantiles(samples, n=100)[p - 1]


def end_to_end(run: Run, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Returns (values, sample counts) for the untraced sets.

    Times are medians over the sets, each operation scaled by its ``Speed``
    marks.  Each frame's latency is its median over the sets, scaled like
    its track operation; the percentiles are taken over the frames.
    """
    speed = run.speed
    sets = [s for s in run.sets if not s.traced]
    frames = [statistics.median(per_set) for per_set in zip(
        *([ms * speed.scale(s.marks["track"]) for ms in s.frame_ms] for s in sets))]
    mota, pck, auc = sets[0].accuracy
    values = {
        "track_ms_per_det": statistics.median(
            s.track_ms_per_det * speed.scale(s.marks["track"]) for s in sets),
        "frame_ms_p50": percentile(frames, 50),
        "frame_ms_p90": percentile(frames, 90),
        "eval_s": statistics.median(s.eval_s * speed.scale(s.marks["eval"]) for s in sets),
        "export_s": statistics.median(s.export_s * speed.scale(s.marks["export"]) for s in sets),
        "setup_s": statistics.median(t * scale for t, scale in setups),
        "peak_rss_mb": run.peak_rss_mb,
        "mota": mota,
        "pck_rel": pck,
        "auc_rel": auc,
        "ops_ok_frac": (run.attempted - run.failed) / run.attempted,
    }
    samples = {name: len(sets) for name in values}
    samples.update(frame_ms_p50=len(frames), frame_ms_p90=len(frames),
                   setup_s=len(setups), peak_rss_mb=1, ops_ok_frac=run.attempted)
    return values, samples


def per_layer(run: Run, inputs: Inputs, setups: list[tuple[float, float]],
              setup_layers: list[dict]) -> tuple[dict, list[str]]:
    """Returns (values, problems) for the traced sets.  Layer times are
    medians over the traced sets, each set scaled by the ``Speed`` marks
    around it."""
    problems = []
    speed = run.speed
    traced = [s for s in run.sets if s.traced]
    untraced = [s for s in run.sets if not s.traced]
    calls = [{name: layer.calls for name, layer in s.layers.items()} for s in traced]
    if any(c != calls[0] for c in calls):
        problems.append("call counts differ between traced sets")
    set_scales = [speed.scale(s.marks["track"], s.marks["export"] + 1) for s in traced]
    values = {}
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            if f == "calls":
                values[f"{name}.calls"] = calls[0].get(name, 0)
            elif name in ("synth.generate", "ingest.encode_mask"):
                values[f"{name}.{f}"] = statistics.median(
                    layers.get(name, {}).get(f, 0.0) * scale
                    for layers, (_, scale) in zip(setup_layers, setups))
            else:
                values[f"{name}.{f}"] = statistics.median(
                    getattr(s.layers[name], f) * scale if name in s.layers else 0.0
                    for s, scale in zip(traced, set_scales))
    values["ingest.load_depth.mb"] = values["ingest.load_depth.calls"] * inputs.depth_file_bytes / 1e6
    values.update({f"tracking.{k}": v for k, v in traced[0].counts.items()})

    def track_ms(sets):
        return statistics.median(s.track_ms_per_det * speed.scale(s.marks["track"]) for s in sets)

    values["trace.track_ms_per_det"] = track_ms(traced)
    values["trace.overhead_ms_per_det"] = track_ms(traced) - track_ms(untraced)
    values["trace.track_coverage"] = statistics.median(s.coverage for s in traced)
    values["trace.ref_ms"] = 1000.0 * statistics.median(speed.refs)
    return values, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> dict:
    """Set up, measure and check one workload; returns the full report."""
    work = WORK_DIR / f"{workload}-{seed}-{trace:d}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    speed = Speed()
    try:
        inputs, setups, setup_layers = setup(workload, seed, work, trace, sizes or {}, speed)
        run = Run(inputs, work, speed)
        run.measure(seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Unscaled times, so any reported value can be recomputed.
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "attempted": run.attempted, "failed": run.failed, "errors": run.errors,
              "sets": len(run.sets), "reference_s": speed.refs,
              "setup_s": [t for t, _ in setups],
              "set_times": [{"traced": s.traced, "marks": s.marks, "track_s": s.track_s,
                             "eval_s": s.eval_s, "export_s": s.export_s} for s in run.sets]}
    if not run.sets or (trace and not any(s.traced for s in run.sets)):
        report.update(correct=False, metrics={}, samples={})
        return report
    first = run.sets[0]
    report.update(detections=first.detections, tracks_sha256=first.tracks_sha,
                  scene_sha256=first.scene_sha, counts=first.counts)
    problems = []
    if trace:
        values, problems = per_layer(run, inputs, setups, setup_layers)
        units = per_layer_units()
        samples = {name: sum(1 for s in run.sets if s.traced) for name in values}
        report["spans"] = [span for s in run.sets if s.traced for span in s.spans]
    else:
        values, samples = end_to_end(run, setups)
        units = END_TO_END
    report["problems"] = problems
    report["correct"] = run.failed == 0 and not problems
    report["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    report["samples"] = samples
    return report
