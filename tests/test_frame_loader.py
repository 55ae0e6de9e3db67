"""`run_sequence` loads the next frame's depth raster on a worker while the
current frame is lifted.  Faults are still reported in frame order, the
worker is joined on every exit, and the tracks do not depend on how long a
load takes."""

import random
import threading
import time

import numpy as np
import pytest

from pose3dtrack import ingest
from pose3dtrack.cli import main as cli_main
from pose3dtrack.errors import EmptySupportError, ParseError
from pose3dtrack.ingest import DepthMap, load_config, load_depth, load_sequence, write_depth
from pose3dtrack.tracking import run_sequence


def _bundle(tmp_path, name="parallel_walk"):
    out = tmp_path / name
    assert cli_main(["synth", "--scenario", name, "--out-dir", str(out)]) == 0
    cfg = load_config(out / "config.json")
    return out, cfg, load_sequence(out / "detections.jsonl", out / "depth", cfg.camera)


def _truncate(path, cut=7):
    data = path.read_bytes()
    path.write_bytes(data[:-cut])
    header = data[:data.index(b"\n") + 1]
    _, w, h = header.decode("ascii").split()
    expected = int(w) * int(h) * 4
    return f"{path}: payload is {expected - cut} bytes, expected {expected} for {w}x{h}"


def _unliftable(path):
    """Zero a raster: every detection on it has no valid depth."""
    depth = load_depth(path)
    write_depth(path, DepthMap(depth.width, depth.height, np.zeros_like(depth.values)))


def _run_raising(seq, cfg, error):
    threads = threading.active_count()
    with pytest.raises(error) as info:
        run_sequence(seq, cfg.tracker, cfg.lifting)
    assert threading.active_count() == threads  # the worker was joined
    return str(info.value)


@pytest.mark.parametrize("k", [0, 1, 14, 29])
def test_a_truncated_raster_is_reported_as_its_own_frame(tmp_path, k):
    _, cfg, seq = _bundle(tmp_path)
    frame = seq.frames[k]
    text = _truncate(frame.depth)
    assert _run_raising(seq, cfg, ParseError) == f"frame {frame.frame_index}: {text}"


@pytest.mark.parametrize("j, k", [(13, 14), (0, 1), (0, 29), (28, 29)])
def test_an_earlier_frame_fault_wins_over_a_load_fault_made_ahead(tmp_path, monkeypatch, j, k):
    _, cfg, seq = _bundle(tmp_path)
    assert seq.frames[j].detections
    _truncate(seq.frames[k].depth)
    _unliftable(seq.frames[j].depth)
    loaded = []

    def recording_load(path):
        loaded.append(path)
        return load_depth(path)

    monkeypatch.setattr(ingest, "load_depth", recording_load)
    message = _run_raising(seq, cfg, EmptySupportError)
    assert message == f"frame {seq.frames[j].frame_index}: no valid depth pixel inside mask ∩ box"
    # Frame j+1 was loaded ahead while frame j was lifted, and no further;
    # when that is frame k, its ParseError was discarded.
    assert loaded == [frame.depth for frame in seq.frames[:j + 2]]


def test_a_successful_run_leaves_no_thread_behind(tmp_path):
    _, cfg, seq = _bundle(tmp_path)
    threads = threading.active_count()
    assert run_sequence(seq, cfg.tracker, cfg.lifting)
    assert threading.active_count() == threads


@pytest.mark.parametrize("name", ["three_person_mix", "depth_cross"])
def test_tracks_do_not_depend_on_load_timing(tmp_path, monkeypatch, name):
    out = tmp_path / "bundle"
    assert cli_main(["synth", "--scenario", name, "--out-dir", str(out),
                     "--seed", "7", "--noise", "0.5"]) == 0

    def track(tracks):
        assert cli_main(["track", "--detections", str(out / "detections.jsonl"),
                         "--depth-dir", str(out / "depth"), "--config",
                         str(out / "config.json"), "--out", str(tracks)]) == 0
        return tracks.read_bytes()

    plain = track(tmp_path / "plain.jsonl")
    rng = random.Random(18)  # only the one worker thread draws from it

    def slow_load(path):
        time.sleep(rng.uniform(0.0, 0.002))
        return load_depth(path)

    monkeypatch.setattr(ingest, "load_depth", slow_load)
    assert track(tmp_path / "slow.jsonl") == plain
