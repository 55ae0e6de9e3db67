"""Per-layer timing from outside the engine.

The recorder wraps the engine's public functions, each where its caller
looks the name up (many are imported by name into the calling module), and
keeps one span per call: name, start, end and parent.  Spans stay in memory
until the benchmark writes them out.  A target that no longer exists makes
:meth:`SpanRecorder.installed` raise, so a renamed function fails the traced
run instead of reading as zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path

from pose3dtrack import export, geometry, ingest, metrics, pose3d, synth, tracking

# (span name, owner, attribute): the owner is the module or class whose
# attribute the caller reads at call time.
TRACK_TARGETS = (
    ("ingest.load_config", ingest, "load_config"),
    ("ingest.load_sequence", ingest, "load_sequence"),
    ("ingest.parse_detections", ingest, "parse_detections"),
    ("ingest.load_depth", ingest, "load_depth"),
    ("tracking.run_sequence", tracking, "run_sequence"),
    ("geometry.lift_box", tracking, "lift_box"),
    ("pose3d.lift_pose", pose3d, "lift_pose"),
    ("geometry.depth_extrema", geometry, "depth_extrema"),
    ("geometry.depth_extrema", pose3d, "depth_extrema"),
    ("ingest.mask_indices", geometry, "mask_indices"),
    ("ingest.mask_indices", pose3d, "mask_indices"),
    # Tracker.__init__ resolves the predictor, so these are patched before
    # any Tracker is built.
    ("tracking.step", tracking.Tracker, "step"),
    ("tracking.finalize", tracking.Tracker, "finalize"),
    ("tracking.associate", tracking, "associate"),
    ("tracking.iou3d_matrix", tracking, "iou3d_matrix"),
    ("tracking.assign_by_iou", tracking, "assign_by_iou"),
    ("tracking.predict", tracking, "predict"),
    ("tracking.write_tracks", tracking, "write_tracks"),
    ("tracking.read_tracks", tracking, "read_tracks"),
    ("metrics.ground_truth_from_tracks", metrics, "ground_truth_from_tracks"),
    ("metrics.mota", metrics, "mota"),
    ("metrics.match_frame", metrics, "match_frame"),
    ("metrics.matched_pose_pairs", metrics, "matched_pose_pairs"),
    ("metrics.pck3d_rel", metrics, "pck3d_rel"),
    ("metrics.auc_rel", metrics, "auc_rel"),
    ("export.export_scene", export, "export_scene"),
    ("export.write_scene", export, "write_scene"),
)

SETUP_TARGETS = (
    ("synth.generate", synth, "generate"),
    ("ingest.encode_mask", synth, "encode_mask"),
)


class MissingTarget(RuntimeError):
    """A traced function is gone from the place its caller looks it up."""


@dataclass
class Layer:
    s: float = 0.0  # total time, not counting calls nested in the same name
    self_s: float = 0.0  # time not covered by child spans
    calls: int = 0


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for name, owner, attr in targets:
                try:
                    original = getattr(owner, attr)
                except AttributeError:
                    raise MissingTarget(
                        f"trace target {owner.__name__}.{attr} ({name}) does not exist"
                    ) from None
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layers(self) -> dict[str, Layer]:
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, Layer] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            layer = out.setdefault(name, Layer())
            duration = end - start
            layer.calls += 1
            layer.self_s += duration - covered[i]
            if not self._nested_in_same_name(i):
                layer.s += duration
        return out

    def _nested_in_same_name(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def coverage(self, name: str) -> float:
        """Share of the first ``name`` span's time covered by its children."""
        for i, (span_name, start, end, _) in enumerate(self.spans):
            if span_name == name:
                children = sum(e - s for _, s, e, p in self.spans if p == i)
                return children / (end - start)
        raise KeyError(name)


def write_spans(path: Path, spans: list[list]) -> None:
    """One JSON line per span; ``parent`` indexes the set's own spans."""
    with open(path, "w", encoding="utf-8") as f:
        for name, start, end, parent in spans:
            f.write(json.dumps({"name": name, "start": start, "end": end,
                                "parent": parent}) + "\n")
