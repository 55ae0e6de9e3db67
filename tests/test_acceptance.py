"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

from oracles import best_assignment_total, extrema_pixel_scan, iou3d_cell_oracle, translated
from pose3dtrack.cli import main as cli_main
from pose3dtrack.geometry import Box3D, depth_extrema, iou3d
from pose3dtrack.ingest import (
    BASIC15,
    Box2D,
    DepthMap,
    Detection,
    Keypoints2D,
    Mask2D,
    TrackerConfig,
    encode_mask,
)
from pose3dtrack.metrics import auc_rel, mota, pck3d_rel
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.synth import builtin, generate
from pose3dtrack.tracking import PREDICTED, Tracker, associate, run_sequence

from test_metrics import fragment, gt_two_people, spread_pose, uniform_error_pair


def grid_box(rng) -> Box3D:
    # dyadic coordinates keep translation arithmetic exact in float64;
    # the tight span makes overlapping pairs common
    step = 1.0 / 64.0
    lo = rng.integers(-64, 64, size=3) * step
    size = rng.integers(16, 128, size=3) * step
    return Box3D(lo[0], lo[0] + size[0], lo[1], lo[1] + size[1], lo[2], lo[2] + size[2])


def test_c1_geometry_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    disjoint_seen = overlap_seen = 0
    for _ in range(1000):
        a, b = grid_box(rng), grid_box(rng)
        got = iou3d(a, b)
        want = iou3d_cell_oracle(a.as_array(), b.as_array())
        assert abs(got - want) <= 1e-3
        assert got == iou3d(b, a)
        assert iou3d(a, a) == 1.0
        t = tuple(float(v) for v in rng.integers(-5, 6, size=3))
        assert iou3d(translated(a, *t), translated(b, *t)) == got
        if got == 0.0:
            disjoint_seen += 1
            assert (a.x_max <= b.x_min or b.x_max <= a.x_min
                    or a.y_max <= b.y_min or b.y_max <= a.y_min
                    or a.z_max <= b.z_min or b.z_max <= a.z_min)
        else:
            overlap_seen += 1
    elapsed = time.perf_counter() - start
    assert disjoint_seen > 0 and overlap_seen > 0
    assert elapsed < 10.0
    print(f"[PASS] criterion 1: iou3d oracle suite on 1000 pairs "
          f"({overlap_seen} overlapping) in {elapsed:.2f}s")


def test_c2_depth_extrema_oracle():
    rng = np.random.default_rng(77)
    for _ in range(200):
        w, h = int(rng.integers(4, 24)), int(rng.integers(4, 20))
        values = rng.uniform(0.5, 9.0, size=(h, w))
        values[rng.random((h, w)) < 0.25] = 0.0
        depth = DepthMap(width=w, height=h, values=values.astype(np.float32))
        count = int(rng.integers(1, w * h))
        idx = set(map(int, rng.choice(w * h, size=count, replace=False)))
        mask = encode_mask(idx, w, h)
        box = Box2D(float(rng.uniform(0, w / 2)), float(rng.uniform(0, h / 2)),
                    float(rng.uniform(w / 2, w - 1)), float(rng.uniform(h / 2, h - 1)))
        expected = extrema_pixel_scan(
            depth.values.tolist(), idx, (box.x_min, box.y_min, box.x_max, box.y_max))
        if expected is None:
            try:
                depth_extrema(depth, mask, box, percentile=0.0)
                raise AssertionError("expected EmptySupportError")
            except Exception as e:
                assert type(e).__name__ == "EmptySupportError"
        else:
            assert depth_extrema(depth, mask, box, percentile=0.0) == expected
    print("[PASS] criterion 2: depth_extrema equals pixel-scan oracle on 200 instances")


def test_c3_assignment_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    gates = (0.0, 0.2, 0.3, 0.5)
    for k in range(500):
        n, m = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        tracks = []
        for _ in range(n):
            lo = rng.uniform(0, 2, size=3)
            size = rng.uniform(0.4, 1.6, size=3)
            tracks.append(Box3D(lo[0], lo[0] + size[0], lo[1], lo[1] + size[1],
                                lo[2], lo[2] + size[2]))
        dets = []
        for _ in range(m):
            lo = rng.uniform(0, 2, size=3)
            size = rng.uniform(0.4, 1.6, size=3)
            dets.append(Box3D(lo[0], lo[0] + size[0], lo[1], lo[1] + size[1],
                              lo[2], lo[2] + size[2]))
        gate = gates[k % len(gates)]
        pairs, _, _ = associate(tracks, dets, gate=gate, mode="iou3d")
        total = sum(iou3d(tracks[t], dets[d]) for t, d in pairs)
        iou = np.array([[iou3d(b, db) for db in dets] for b in tracks]).reshape(n, m)
        assert math.isclose(total, best_assignment_total(iou, gate), abs_tol=1e-9)
        assert all(iou3d(tracks[t], dets[d]) >= gate for t, d in pairs)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[PASS] criterion 3: assignment optimal vs brute force on 500 instances "
          f"in {elapsed:.2f}s")


def test_c4_clear_mot_correctness():
    gt = gt_two_people()
    t0 = fragment(0, [(f, (0.0, 0.0, 2.0)) for f in range(10) if f not in (3, 4)])
    t1 = fragment(1, [(f, (5.0, 0.0, 2.0)) for f in range(7)])
    t2 = fragment(2, [(6, (50.0, 0.0, 2.0))])
    t3 = fragment(3, [(f, (5.0, 0.0, 2.0)) for f in range(7, 10)])
    report = mota(gt, [t0, t1, t2, t3], radius=0.5)
    assert report.gt_total == 20
    assert report.misses == 2
    assert report.false_positives == 1
    assert report.id_switches == 1
    assert report.mota == 0.8

    perfect = [
        fragment(0, [(f, (0.0, 0.0, 2.0)) for f in range(10)]),
        fragment(1, [(f, (5.0, 0.0, 2.0)) for f in range(10)]),
    ]
    clean = mota(gt, perfect, radius=0.5)
    assert clean.mota == 1.0
    assert (clean.misses, clean.false_positives, clean.id_switches) == (0, 0, 0)
    print("[PASS] criterion 4: CLEAR-MOT reports 0.8 on the constructed scenario "
          "and 1.0 for the perfect tracker")


def test_c5_pck_correctness():
    gt_pose = spread_pose((0.0, 0.0, 3.0))
    joints = gt_pose.joints.copy()
    joints[2, 0] += 0.2
    pred = Pose3D(joints=joints, root_index=gt_pose.root_index,
                  skeleton_id=gt_pose.skeleton_id)
    report = pck3d_rel([(gt_pose, pred)], tau=0.15)
    assert abs(report.pck_rel - 93.33) <= 0.01

    value = auc_rel([uniform_error_pair(0.075)])
    assert abs(value - 53.33) <= 0.01
    print(f"[PASS] criterion 5: pck_rel={report.pck_rel:.2f} (93.33±0.01), "
          f"auc_rel={value:.2f} (53.33±0.01)")


def test_c6_occlusion_recovery():
    cfg = TrackerConfig()
    assert 5 <= cfg.max_gap
    seq, gt = generate(builtin("full_occlusion", gap=5))
    tracks = run_sequence(seq, cfg)
    assert len(tracks) == 1
    report = mota(gt, tracks, radius=0.5)
    assert report.id_switches == 0
    predicted = [s for s in tracks[0].states if s.kind == PREDICTED]
    assert len(predicted) == 5
    worst = 0.0
    for state in predicted:
        truth = dict(gt.frames[state.frame_index])[0]
        worst = max(worst, float(np.linalg.norm(state.pose3d.root - truth.root)))
    assert worst <= 1e-9
    print(f"[PASS] criterion 6: single track, 0 switches, predicted roots within "
          f"{worst:.2e} m of truth")


def test_c7_depth_disambiguation_ab():
    start = time.perf_counter()
    seq, gt = generate(builtin("depth_cross"))
    r3 = mota(gt, run_sequence(seq, TrackerConfig(association_mode="iou3d")), radius=0.5)
    r2 = mota(gt, run_sequence(seq, TrackerConfig(association_mode="iou2d")), radius=0.5)
    elapsed = time.perf_counter() - start
    assert r3.id_switches == 0
    assert r3.mota == 1.0
    assert r2.id_switches >= 1
    assert r2.mota < r3.mota
    assert elapsed < 5.0
    print(f"[PASS] criterion 7: iou3d mota=1.0/0 switches vs iou2d "
          f"mota={r2.mota:.3f}/{r2.id_switches} switches in {elapsed:.2f}s")


def test_c8_cli_determinism(tmp_path, capsys):
    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        synth_dir = base / "scene"
        tracks = base / "tracks.jsonl"
        assert cli_main(["synth", "--scenario", "depth_cross",
                         "--out-dir", str(synth_dir), "--seed", "7"]) == 0
        assert cli_main(["track", "--detections", str(synth_dir / "detections.jsonl"),
                         "--depth-dir", str(synth_dir / "depth"),
                         "--config", str(synth_dir / "config.json"),
                         "--out", str(tracks)]) == 0
        capsys.readouterr()
        assert cli_main(["eval", "--tracks", str(tracks),
                         "--gt", str(synth_dir / "ground_truth.jsonl"),
                         "--metric", "mota"]) == 0
        eval_stdout = capsys.readouterr().out
        files = {}
        for path in sorted(base.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(base))] = path.read_bytes()
        outputs.append((files, eval_stdout))

    (files_a, eval_a), (files_b, eval_b) = outputs
    assert files_a.keys() == files_b.keys()
    for name in files_a:
        assert files_a[name] == files_b[name], f"{name} differs between runs"
    assert eval_a == eval_b
    print(f"[PASS] criterion 8: {len(files_a)} files plus eval output byte-identical "
          "across reruns")


def test_c9_throughput_prelifted():
    n_frames, n_people = 1000, 10
    det = Detection(
        frame_index=0,
        box=Box2D(0.0, 0.0, 3.0, 3.0),
        mask=Mask2D(width=4, height=4, runs=((0, 16),)),
        keypoints=Keypoints2D(joints=np.tile([1.0, 1.0, 1.0], (15, 1))),
        score=1.0,
    )
    frames = []
    for f in range(n_frames):
        items = []
        for p in range(n_people):
            x = 3.0 * p + 0.02 * f
            z = 4.0 + (p % 5)
            box = Box3D(x - 0.4, x + 0.4, -0.8, 0.8, z - 0.3, z + 0.3)
            joints = np.tile([x, 0.0, z, 1.0], (15, 1))
            pose = Pose3D(joints=joints, root_index=BASIC15.root_index,
                          skeleton_id=BASIC15.name)
            items.append((det, box, pose))
        frames.append(items)

    tracker = Tracker(TrackerConfig())
    start = time.perf_counter()
    for f, items in enumerate(frames):
        tracker.step(f, items)
    tracks = tracker.finalize()
    elapsed = time.perf_counter() - start
    assert len(tracks) == n_people
    assert all(len(t.states) == n_frames for t in tracks)
    assert elapsed < 2.0
    print(f"[PASS] criterion 9: {n_frames} frames x {n_people} people tracked "
          f"in {elapsed:.2f}s")
