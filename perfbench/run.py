"""Benchmark of the engine's track -> eval -> export flow.

Run from the root of a checkout::

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 20 --trace 0

Workloads (all inputs are drawn from ``--seed``; see ``workloads.py``):

* ``crowd``: 10 people crossing at 3.0-8.4 m, 640x480, 100 frames, rendered
  to files; lifting-heavy with heavy mutual occlusion.
* ``wide_sparse``: 4 small people at 6-10.5 m, 1280x720, 100 frames, rendered
  to files; whole-frame work (depth load, full-frame arrays) dominates.
* ``replay``: 30 pre-lifted people over 150 frames, one occlusion gap each;
  the tracker, tracks-file IO and metrics do all the work, lifting none.

Tune on seed ``workloads.TUNING_SEED`` and re-check a claimed gain on
``workloads.HELD_OUT_SEED``.  ``baseline.json`` holds the machine facts and
the baseline every later change is measured against.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
split.  Times are scaled to a reference machine speed (see
``bench.Speed``); the unscaled times are in the full report.  The last
line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric's sample count and the tracks and scene digests.  The full
report (and, when tracing, every span) is written under ``.bench_out/``.
Exit code 2 means the checkout holds no engine source; 1 means no set of
operations completed.
"""

from __future__ import annotations

import argparse
import json
import sys

from checkout import use_checkout_source


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    use_checkout_source()

    import bench
    from spans import write_spans

    if ns.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {ns.workload!r}; known: {', '.join(bench.WORKLOADS)}")
    report = bench.run_workload(ns.workload, ns.seed, ns.seconds, bool(ns.trace))

    bench.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    spans = report.pop("spans", None)
    if spans is not None:
        write_spans(bench.OUT_DIR / f"{stem}-spans.jsonl", spans)
    with open(bench.OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    print(f"workload={ns.workload} seed={ns.seed} trace={ns.trace} sets={report['sets']} "
          f"detections={report.get('detections')} attempted={report['attempted']} "
          f"failed={report['failed']}")
    print(f"tracks_sha256={report.get('tracks_sha256')}")
    print(f"scene_sha256={report.get('scene_sha256')}")
    for problem in report["errors"] + report.get("problems", []):
        print(f"check failed: {problem}")
    if not report["metrics"]:
        sys.stderr.write("error: no set of operations completed\n")
        return 1
    for name, metric in report["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']} n={report['samples'][name]}")
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
