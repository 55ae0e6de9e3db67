import json
from dataclasses import replace

import pytest

from oracles import scene_to_dict
from pose3dtrack.cli import main
from pose3dtrack.export import export_scene, read_scene, scene_from_dict, write_scene
from pose3dtrack.ingest import BASIC15, TrackerConfig
from pose3dtrack.synth import builtin, generate
from pose3dtrack.tracking import read_tracks, run_sequence, write_tracks


# ---------------------------------------------------------------------------
# Scene export
# ---------------------------------------------------------------------------

def test_export_empty_track_list():
    doc = export_scene([], fps=20.0, skeleton_id=BASIC15.name)
    assert doc.actors == ()
    assert doc.units == "meters"


def test_export_observed_track():
    seq, _ = generate(builtin("parallel_walk"))
    tracks = run_sequence(seq, TrackerConfig())
    doc = export_scene(tracks, fps=20.0, skeleton_id=BASIC15.name)
    assert len(doc.actors) == 2
    for actor in doc.actors:
        assert len(actor.samples) == len(seq.frames)
        assert all(s.state == "observed" for s in actor.samples)
        frames = [s.frame for s in actor.samples]
        assert frames == list(range(frames[0], frames[0] + len(frames)))


def test_export_flags_predicted_run():
    seq, _ = generate(builtin("full_occlusion", gap=3))
    tracks = run_sequence(seq, TrackerConfig())
    doc = export_scene(tracks, fps=20.0, skeleton_id=BASIC15.name)
    predicted = [s for s in doc.actors[0].samples if s.state == "predicted"]
    assert len(predicted) == 3
    assert [s.frame for s in predicted] == [12, 13, 14]


def test_scene_document_round_trip_bit_exact(tmp_path):
    seq, _ = generate(builtin("three_person_mix"))
    tracks = run_sequence(seq, TrackerConfig())
    doc = export_scene(tracks, fps=20.0, skeleton_id=BASIC15.name)
    path = tmp_path / "scene.json"
    write_scene(path, doc)
    loaded = read_scene(path)
    assert loaded.fps == doc.fps
    assert loaded.skeleton_id == doc.skeleton_id
    assert loaded.engine_version == doc.engine_version
    for a, b in zip(doc.actors, loaded.actors):
        assert a.actor_id == b.actor_id and a.birth_frame == b.birth_frame
        for sa, sb in zip(a.samples, b.samples):
            assert sa.frame == sb.frame and sa.state == sb.state
            assert sa.joints.tobytes() == sb.joints.tobytes()
    assert scene_from_dict(scene_to_dict(doc)).actors[0].samples[0].joints.tobytes() \
        == doc.actors[0].samples[0].joints.tobytes()
    assert loaded == doc and hash(loaded) == hash(doc)
    moved = doc.actors[0].samples[0].joints.copy()
    moved[0, 0] += 1.0
    first = replace(doc.actors[0].samples[0], joints=moved)
    actor = replace(doc.actors[0], samples=(first, *doc.actors[0].samples[1:]))
    assert replace(doc, actors=(actor, *doc.actors[1:])) != loaded


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(*args):
    return main(list(args))


def synth_bundle(tmp_path, scenario="parallel_walk", seed=0):
    out = tmp_path / scenario
    code = run_cli("synth", "--scenario", scenario, "--out-dir", str(out), "--seed", str(seed))
    assert code == 0
    return out


def test_cli_synth_writes_bundle(tmp_path, capsys):
    out = synth_bundle(tmp_path, "depth_cross")
    capsys.readouterr()
    assert (out / "detections.jsonl").is_file()
    assert (out / "ground_truth.jsonl").is_file()
    assert (out / "scenario.json").is_file()
    assert (out / "config.json").is_file()
    assert (out / "depth" / "0.dpt").is_file()


def test_cli_synth_unknown_scenario(tmp_path, capsys):
    code = run_cli("synth", "--scenario", "bogus", "--out-dir", str(tmp_path / "x"))
    assert code == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_track_happy_path(tmp_path, capsys):
    out = synth_bundle(tmp_path)
    tracks_path = tmp_path / "tracks.jsonl"
    code = run_cli(
        "track", "--detections", str(out / "detections.jsonl"),
        "--depth-dir", str(out / "depth"), "--config", str(out / "config.json"),
        "--out", str(tracks_path),
    )
    assert code == 0
    assert "tracks=2" in capsys.readouterr().out
    header, tracks = read_tracks(tracks_path)
    assert header["tracker"]["association_mode"] == "iou3d"
    assert len(tracks) == 2


def test_cli_track_missing_depth_names_frame(tmp_path, capsys):
    out = synth_bundle(tmp_path)
    (out / "depth" / "7.dpt").unlink()
    code = run_cli(
        "track", "--detections", str(out / "detections.jsonl"),
        "--depth-dir", str(out / "depth"), "--config", str(out / "config.json"),
        "--out", str(tmp_path / "t.jsonl"),
    )
    assert code == 1
    assert "frame 7" in capsys.readouterr().err


def test_cli_eval_perfect_tracks(tmp_path, capsys):
    out = synth_bundle(tmp_path)
    capsys.readouterr()
    gt = str(out / "ground_truth.jsonl")
    code = run_cli("eval", "--tracks", gt, "--gt", gt, "--metric", "mota")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mota"] == 1.0
    assert report["id_switches"] == 0


def test_cli_eval_empty_ground_truth_fails(tmp_path, capsys):
    out = synth_bundle(tmp_path)
    empty_gt = tmp_path / "empty_gt.jsonl"
    write_tracks(empty_gt, [], skeleton_id=BASIC15.name, fps=20.0, kind="ground_truth")
    code = run_cli("eval", "--tracks", str(out / "ground_truth.jsonl"),
                   "--gt", str(empty_gt), "--metric", "mota")
    assert code == 1
    assert "empty ground truth" in capsys.readouterr().err


def test_cli_eval_bogus_metric_is_usage_error(tmp_path):
    out = synth_bundle(tmp_path)
    gt = str(out / "ground_truth.jsonl")
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", "--tracks", gt, "--gt", gt, "--metric", "bogus")
    assert exc.value.code == 2


def test_cli_eval_pck_and_auc(tmp_path, capsys):
    out = synth_bundle(tmp_path)
    tracks_path = tmp_path / "tracks.jsonl"
    run_cli("track", "--detections", str(out / "detections.jsonl"),
            "--depth-dir", str(out / "depth"), "--config", str(out / "config.json"),
            "--out", str(tracks_path))
    capsys.readouterr()
    code = run_cli("eval", "--tracks", str(tracks_path),
                   "--gt", str(out / "ground_truth.jsonl"), "--metric", "pck3d")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pck_rel"] > 99.0
    code = run_cli("eval", "--tracks", str(tracks_path),
                   "--gt", str(out / "ground_truth.jsonl"), "--metric", "auc")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["auc_rel"] > 95.0


def test_cli_eval_constructed_mota_scenario_end_to_end(tmp_path, capsys):
    # Reuse the hand-counted 0.8 scenario through the file interface.
    from test_metrics import fragment

    gt_records = []
    for gt_id in (0, 1):
        positions = [(f, (0.0 if gt_id == 0 else 5.0, 0.0, 2.0)) for f in range(10)]
        gt_records.append(fragment(gt_id, positions))
    gt_path = tmp_path / "gt.jsonl"
    write_tracks(gt_path, gt_records, skeleton_id=BASIC15.name, fps=10.0,
                 kind="ground_truth")

    t0 = fragment(0, [(f, (0.0, 0.0, 2.0)) for f in range(10) if f not in (3, 4)])
    t1 = fragment(1, [(f, (5.0, 0.0, 2.0)) for f in range(7)])
    t2 = fragment(2, [(6, (50.0, 0.0, 2.0))])
    t3 = fragment(3, [(f, (5.0, 0.0, 2.0)) for f in range(7, 10)])
    tracks_path = tmp_path / "tracks.jsonl"
    write_tracks(tracks_path, [t0, t1, t2, t3], skeleton_id=BASIC15.name, fps=10.0)

    code = run_cli("eval", "--tracks", str(tracks_path), "--gt", str(gt_path),
                   "--metric", "mota")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mota"] == 0.8
    assert report["misses"] == 2
    assert report["false_positives"] == 1
    assert report["id_switches"] == 1


def test_cli_export_round_trip(tmp_path, capsys):
    out = synth_bundle(tmp_path, "full_occlusion")
    tracks_path = tmp_path / "tracks.jsonl"
    run_cli("track", "--detections", str(out / "detections.jsonl"),
            "--depth-dir", str(out / "depth"), "--config", str(out / "config.json"),
            "--out", str(tracks_path))
    scene_path = tmp_path / "scene.json"
    code = run_cli("export", "--tracks", str(tracks_path), "--out", str(scene_path))
    assert code == 0
    doc = read_scene(scene_path)
    assert len(doc.actors) == 1
    assert any(s.state == "predicted" for s in doc.actors[0].samples)
    # joints in the document equal the track file's poses bit-exactly
    _, tracks = read_tracks(tracks_path)
    for actor, track in zip(doc.actors, tracks):
        for sample, state in zip(actor.samples, track.states):
            assert sample.joints.tobytes() == state.pose3d.joints[:, :3].tobytes()


def test_cli_mode_override_changes_association(tmp_path, capsys):
    out = synth_bundle(tmp_path, "depth_cross")
    results = {}
    for mode in ("iou3d", "iou2d"):
        tracks_path = tmp_path / f"tracks_{mode}.jsonl"
        run_cli("track", "--detections", str(out / "detections.jsonl"),
                "--depth-dir", str(out / "depth"), "--config", str(out / "config.json"),
                "--out", str(tracks_path), "--mode", mode)
        capsys.readouterr()
        run_cli("eval", "--tracks", str(tracks_path),
                "--gt", str(out / "ground_truth.jsonl"), "--metric", "mota")
        results[mode] = json.loads(capsys.readouterr().out)
    assert results["iou3d"]["id_switches"] == 0
    assert results["iou2d"]["id_switches"] >= 1
    assert results["iou2d"]["mota"] < results["iou3d"]["mota"]


def _tracks_file(tmp_path, fps):
    seq, _ = generate(builtin("parallel_walk"))
    tracks = run_sequence(seq, TrackerConfig())
    path = tmp_path / "tracks.jsonl"
    write_tracks(path, tracks, skeleton_id=BASIC15.name, fps=fps)
    return path


@pytest.mark.parametrize("fps", ["nan", "inf", "-inf", "0", "-5"])
def test_cli_export_rejects_bad_fps_flag(tmp_path, capsys, fps):
    scene_path = tmp_path / "scene.json"
    code = run_cli("export", "--tracks", str(_tracks_file(tmp_path, 20.0)),
                   "--out", str(scene_path), f"--fps={fps}")
    assert code == 1
    assert capsys.readouterr().err == "error: SceneDocument: fps must be finite and > 0\n"
    assert not scene_path.exists()


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), 0.0, -5.0])
def test_cli_export_rejects_bad_header_fps(tmp_path, capsys, fps):
    scene_path = tmp_path / "scene.json"
    code = run_cli("export", "--tracks", str(_tracks_file(tmp_path, fps)),
                   "--out", str(scene_path))
    assert code == 1
    assert capsys.readouterr().err == "error: SceneDocument: fps must be finite and > 0\n"
    assert not scene_path.exists()


@pytest.mark.parametrize("skeleton, problem", [
    (["x"], "skeleton_id must be a string, got ['x']"),
    (5, "skeleton_id must be a string, got 5"),
    ("nope", "unknown skeleton_id 'nope'"),
])
@pytest.mark.parametrize("with_tracks", [False, True])
def test_cli_export_rejects_a_bad_header_skeleton_naming_file_and_line(
        tmp_path, capsys, skeleton, problem, with_tracks):
    tracks_path = _tracks_file(tmp_path, 20.0)
    header, *tracks = tracks_path.read_text().splitlines()
    header = json.loads(header)
    header["header"]["skeleton"] = skeleton
    tracks_path.write_text("\n".join([json.dumps(header), *(tracks if with_tracks else [])]) + "\n")
    scene_path = tmp_path / "scene.json"
    code = run_cli("export", "--tracks", str(tracks_path), "--out", str(scene_path))
    assert code == 1
    assert capsys.readouterr().err == f"error: {tracks_path}: line 1: {problem}\n"
    assert not scene_path.exists()


def test_cli_export_fps_flag_overrides_bad_header_fps(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    code = run_cli("export", "--tracks", str(_tracks_file(tmp_path, float("nan"))),
                   "--out", str(scene_path), "--fps", "12.5")
    assert code == 0
    assert read_scene(scene_path).fps == 12.5
