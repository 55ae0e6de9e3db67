"""Every CLI input with one JSON value replaced: ``synth``, ``track``,
``eval`` and ``export`` run in process through ``cli.main`` with warnings
turned into errors.  Each run exits 0 or 1, nothing escapes ``main``, a run
that exits 0 writes nothing to stderr, and one that exits 1 writes one
``error: ...`` line and nothing else."""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pose3dtrack.cli import main as cli_main

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# Replacement values: wrong types, integers at and past the int64 and float
# ranges, non-finite and signed-zero floats, numbers that are strings.
VALUES = [None, True, False, -1, 0, 1, 2**63, 10**400, 0.5, -0.0, 1e308, -1e308,
          math.nan, math.inf, "x", "3", [], [1, 2], {}, {"a": 1}]
METRICS = ["mota", "pck3d", "auc"]
JSON_LINES = {"detections": "scene/detections.jsonl",
              "ground_truth": "scene/ground_truth.jsonl", "tracks": "tracks.jsonl"}
DOCUMENTS = {"config": "scene/config.json", "scenario": "scene/scenario.json"}


def run(*argv):
    """``cli.main(argv)`` with warnings as errors: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli_main(list(map(str, argv)))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A two-person, four-frame 64x48 bundle with noise, and its tracks."""
    root = tmp_path_factory.mktemp("mutation")
    spec = {"name": "tiny", "frames": 4, "fps": 10.0, "width": 64, "height": 48,
            "camera": {"fx": 60.0, "fy": 60.0, "cx": 32.0, "cy": 24.0},
            "persons": [{"waypoints": [[0, [-0.8, 0.0, 3.0]], [3, [0.2, 0.0, 3.0]]],
                         "extent": [0.5, 1.0, 0.2]},
                        {"waypoints": [[0, [0.8, 0.1, 4.0]], [3, [-0.2, 0.1, 4.0]]],
                         "extent": [0.6, 1.2, 0.0]}],
            "depth_noise": 0.02, "keypoint_noise": 0.5, "seed": 3}
    (root / "spec.json").write_text(json.dumps(spec))
    assert run("synth", "--scenario", root / "spec.json", "--out-dir", root / "scene")[0] == 0
    assert run(*track_argv(root, root / "scene/config.json", root / "scene/detections.jsonl",
                           root / "tracks.jsonl"))[0] == 0
    return root


def track_argv(root, config, detections, out):
    return ("track", "--detections", detections, "--depth-dir", root / "scene/depth",
            "--config", config, "--out", out)


def value_paths(value, prefix=()):
    """The path of every value inside a JSON value, containers included."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield prefix + (key,)
        yield from value_paths(item, prefix + (key,))


def mutated_text(root, name, data):
    """The text of input ``name`` with one drawn value replaced by a drawn one."""
    if name in DOCUMENTS:
        doc = json.loads((root / DOCUMENTS[name]).read_text())
    else:
        doc = [json.loads(line) for line in (root / JSON_LINES[name]).read_text().splitlines()]
    *head, last = data.draw(st.sampled_from(list(value_paths(doc))), label="path")
    doc = copy.deepcopy(doc)
    target = doc
    for key in head:
        target = target[key]
    target[last] = data.draw(st.sampled_from(VALUES), label="value")
    if name in DOCUMENTS:
        return json.dumps(doc, indent=2) + "\n"
    return "".join(json.dumps(line) + "\n" for line in doc)


def runs_on(root, name, path, work, metric="mota"):
    """The argument lists that read input ``name`` from ``path``."""
    scene = root / "scene"
    if name == "scenario":
        return [("synth", "--scenario", path, "--out-dir", work / "out")]
    if name == "config":
        return [track_argv(root, path, scene / "detections.jsonl", work / "tracks.jsonl")]
    if name == "detections":
        return [track_argv(root, scene / "config.json", path, work / "tracks.jsonl")]
    if name == "ground_truth":
        return [("eval", "--tracks", root / "tracks.jsonl", "--gt", path, "--metric", metric)]
    return [("eval", "--tracks", path, "--gt", scene / "ground_truth.jsonl", "--metric", metric),
            ("export", "--tracks", path, "--out", work / "scene.json")]


INPUTS = [*DOCUMENTS, *JSON_LINES]


@pytest.mark.parametrize("name", INPUTS)
def test_every_unmutated_input_runs_clean(bundle, tmp_path, name):
    path = bundle / {**DOCUMENTS, **JSON_LINES}[name]
    for argv in runs_on(bundle, name, path, tmp_path):
        code, _, err = run(*argv)
        assert (code, err) == (0, "")


@SETTINGS
@given(data=st.data())
@pytest.mark.parametrize("name", INPUTS)
def test_one_replaced_value_exits_0_or_1_with_one_error_line(bundle, name, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = work / "input.json"
        path.write_text(mutated_text(bundle, name, data))
        metric = data.draw(st.sampled_from(METRICS), label="metric")
        for argv in runs_on(bundle, name, path, work, metric):
            code, _, err = run(*argv)
            assert code in (0, 1)
            if code == 0:
                assert err == ""
            else:
                assert err.startswith("error: ") and err.count("\n") == 1 \
                    and err.endswith("\n"), err


def test_a_depth_noise_past_float32_is_one_error_line(bundle, tmp_path):
    spec = json.loads((bundle / "scene/scenario.json").read_text())
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**spec, "depth_noise": 1e308}))
    code, out, err = run("synth", "--scenario", path, "--out-dir", tmp_path / "out")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: DepthMap: non-finite value at pixel ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_keypoint_past_the_float_range_is_one_error_line(bundle, tmp_path):
    lines = (bundle / "scene/detections.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    first["keypoints"][0][0] = 1e308
    path = tmp_path / "detections.jsonl"
    path.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
    argv = track_argv(bundle, bundle / "scene/config.json", path, tmp_path / "tracks.jsonl")
    assert run(*argv) == (1, "", "error: frame 0: Pose3D: non-finite joint value\n")
