"""Every CLI output of the four built-in scenarios, byte for byte.

Runs the CLI in process on each built-in (seed 7, depth noise 0.5): synth,
track in both association modes, eval of each tracks file for every metric,
and export of each tracks file.  The sha256 of every file written and of
every eval's standard output must equal ``tests/golden_outputs.json``.

After an intended output change, rewrite the golden file with::

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden_outputs.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from pose3dtrack.cli import main as cli_main
from pose3dtrack.synth import BUILTIN_NAMES

GOLDEN = Path(__file__).with_name("golden_outputs.json")
MODES = ("iou3d", "iou2d")
METRICS = ("mota", "pck3d", "auc")


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    assert code == 0, f"{argv} exited with {code}"
    return out.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(root: Path) -> dict[str, str]:
    """Run every built-in through the CLI under ``root``; returns relative
    output path (or ``<name>/eval_<mode>_<metric>.stdout``) -> sha256."""
    stdouts = {}
    for name in BUILTIN_NAMES:
        scene = root / name / "scene"
        _run(["synth", "--scenario", name, "--out-dir", str(scene),
              "--seed", "7", "--noise", "0.5"])
        for mode in MODES:
            tracks = root / name / f"tracks_{mode}.jsonl"
            _run(["track", "--detections", str(scene / "detections.jsonl"),
                  "--depth-dir", str(scene / "depth"), "--config", str(scene / "config.json"),
                  "--out", str(tracks), "--mode", mode])
            for metric in METRICS:
                stdouts[f"{name}/eval_{mode}_{metric}.stdout"] = _run([
                    "eval", "--tracks", str(tracks),
                    "--gt", str(scene / "ground_truth.jsonl"), "--metric", metric])
            _run(["export", "--tracks", str(tracks),
                  "--out", str(root / name / f"scene_{mode}.json")])
    digests = {path.relative_to(root).as_posix(): _sha256(path.read_bytes())
               for path in root.rglob("*") if path.is_file()}
    digests.update((key, _sha256(text.encode("utf-8"))) for key, text in stdouts.items())
    return dict(sorted(digests.items()))


def test_builtin_cli_outputs_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = output_digests(tmp_path)
    assert got.keys() == expected.keys()
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"outputs differ from {GOLDEN.name}: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(output_digests(Path(tmp)), sys.stdout, indent=1)
        sys.stdout.write("\n")
