"""Build one file workload's input bundle and report how long it took.

Run by ``run.py`` as a child process, so the renderer's in-memory frames
never count toward the measured process's peak memory::

    python3 perfbench/render.py --workload crowd --seed 1 --out DIR [--trace]

Prints one JSON object: ``setup_s`` and, with ``--trace``, the set-up layers.
"""

from __future__ import annotations

import argparse
import json
import time

from checkout import use_checkout_source


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--people", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    ns = parser.parse_args()
    use_checkout_source()

    from pose3dtrack import synth
    from spans import SETUP_TARGETS, SpanRecorder
    from workloads import SCENES

    sizes = {k: v for k, v in (("frames", ns.frames), ("people", ns.people)) if v is not None}
    scenario = SCENES[ns.workload](ns.seed, **sizes)
    recorder = SpanRecorder()
    with recorder.installed(SETUP_TARGETS if ns.trace else ()):
        start = time.perf_counter()
        synth.write_scenario_bundle(scenario, ns.out)
        setup_s = time.perf_counter() - start
    layers = {name: vars(layer) for name, layer in recorder.layers().items()}
    print(json.dumps({"setup_s": setup_s, "layers": layers}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
