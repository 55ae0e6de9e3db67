import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import decode_mask, project
from pose3dtrack.errors import ParseError, ValidationError
from pose3dtrack.ingest import (
    BASIC15,
    Box2D,
    CameraModel,
    DepthMap,
    Detection,
    Keypoints2D,
    Mask2D,
    Skeleton,
    config_from_dict,
    encode_mask,
    load_config,
    load_depth,
    parse_detections,
    write_depth,
    write_detections,
)


def make_keypoints(u=1.0, v=1.0, conf=1.0):
    joints = np.tile([u, v, conf], (15, 1)).astype(np.float64)
    return Keypoints2D(joints=joints, skeleton_id=BASIC15.name)


def make_detection(frame=0, box=(0.0, 0.0, 3.0, 3.0), runs=((0, 4),), wh=(4, 4), score=0.9):
    return Detection(
        frame_index=frame,
        box=Box2D(*box),
        mask=Mask2D(width=wh[0], height=wh[1], runs=runs),
        keypoints=make_keypoints(),
        score=score,
    )


def detection_line(frame=0, box=(0.0, 0.0, 3.0, 3.0), runs=((0, 4),), score=0.9):
    return json.dumps({
        "frame": frame,
        "box": list(box),
        "mask": {"w": 4, "h": 4, "runs": [list(r) for r in runs]},
        "keypoints": [[1.0, 1.0, 1.0]] * 15,
        "score": score,
    })


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------

def test_decode_single_run():
    mask = Mask2D(width=2, height=2, runs=((0, 3),))
    assert decode_mask(mask) == {0, 1, 2}


def test_decode_two_runs():
    mask = Mask2D(width=2, height=2, runs=((1, 1), (3, 1)))
    assert decode_mask(mask) == {1, 3}


def test_overlapping_runs_rejected():
    with pytest.raises(ValidationError):
        Mask2D(width=2, height=2, runs=((0, 2), (1, 2)))


def test_adjacent_runs_rejected_as_non_canonical():
    with pytest.raises(ValidationError):
        Mask2D(width=2, height=2, runs=((0, 1), (1, 1)))


def test_run_out_of_bounds_rejected():
    with pytest.raises(ValidationError):
        Mask2D(width=2, height=2, runs=((3, 2),))


def test_encode_decode_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w, h = rng.integers(1, 20, size=2)
        total = int(w * h)
        count = int(rng.integers(0, total + 1))
        idx = set(map(int, rng.choice(total, size=count, replace=False)))
        mask = encode_mask(idx, int(w), int(h))
        assert decode_mask(mask) == idx
        assert encode_mask(decode_mask(mask), int(w), int(h)) == mask


# ---------------------------------------------------------------------------
# Depth rasters
# ---------------------------------------------------------------------------

def test_load_depth_identity(tmp_path):
    path = tmp_path / "0.dpt"
    values = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    write_depth(path, DepthMap(width=2, height=2, values=values))
    loaded = load_depth(path)
    assert loaded.width == 2 and loaded.height == 2
    np.testing.assert_array_equal(loaded.values, values)


def test_depth_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.random((13, 7), dtype=np.float32) * 10.0
    values[values < 0.5] = 0.0
    d = DepthMap(width=7, height=13, values=values)
    path = tmp_path / "x.dpt"
    write_depth(path, d)
    loaded = load_depth(path)
    assert loaded.values.tobytes() == d.values.tobytes()


def test_short_payload_rejected(tmp_path):
    path = tmp_path / "bad.dpt"
    path.write_bytes(b"DPTH 2 2\n" + b"\x00" * 12)
    with pytest.raises(ParseError, match="12 bytes"):
        load_depth(path)


def test_nan_depth_names_pixel(tmp_path):
    path = tmp_path / "nan.dpt"
    values = np.array([1.0, 2.0, np.nan, 4.0], dtype="<f4")
    path.write_bytes(b"DPTH 2 2\n" + values.tobytes())
    with pytest.raises(ValidationError, match="pixel 2"):
        load_depth(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.dpt"
    path.write_bytes(b"DEPT 1 1\n" + b"\x00" * 4)
    with pytest.raises(ParseError, match="magic"):
        load_depth(path)


def _payload_error(path, size, expected, dims):
    return f"{path}: payload is {size} bytes, expected {expected} for {dims}"


def test_huge_declared_depth_size_is_a_parse_error_not_an_allocation(tmp_path):
    path = tmp_path / "huge.dpt"
    path.write_bytes(b"DPTH 1000000000 1000000000\n" + b"\x00" * 16)
    with pytest.raises(ParseError) as exc:
        load_depth(path)
    assert str(exc.value) == _payload_error(
        path, 16, 4_000_000_000_000_000_000, "1000000000x1000000000")


@pytest.mark.parametrize("payload", [17, 0, 15, 20])
def test_depth_payload_of_the_wrong_size_gives_its_size(tmp_path, payload):
    path = tmp_path / "bad.dpt"
    path.write_bytes(b"DPTH 2 2\n" + b"\x00" * payload)
    with pytest.raises(ParseError) as exc:
        load_depth(path)
    assert str(exc.value) == _payload_error(path, payload, 16, "2x2")


def test_depth_file_that_shrinks_after_sizing_gives_the_bytes_read(tmp_path, monkeypatch):
    path = tmp_path / "shrunk.dpt"
    path.write_bytes(b"DPTH 2 2\n" + b"\x00" * 12)
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 4))
    with pytest.raises(ParseError) as exc:
        load_depth(path)
    assert str(exc.value) == _payload_error(path, 12, 16, "2x2")


@pytest.mark.parametrize("bad, pixel, message", [
    (np.inf, 2, "non-finite value"), (-np.inf, 1, "non-finite value"),
    (-4.0, 3, "negative depth"), (-np.finfo(np.float32).tiny, 0, "negative depth"),
])
def test_bad_depth_value_names_its_pixel(tmp_path, bad, pixel, message):
    values = np.array([1.0, 0.0, 3.0, 4.0], dtype="<f4")
    values[pixel] = bad
    path = tmp_path / "bad.dpt"
    path.write_bytes(b"DPTH 2 2\n" + values.tobytes())
    with pytest.raises(ValidationError) as exc:
        load_depth(path)
    assert str(exc.value) == f"DepthMap: {message} at pixel {pixel}"


def test_all_negative_zero_depth_loads(tmp_path):
    path = tmp_path / "zeros.dpt"
    path.write_bytes(b"DPTH 3 2\n" + np.full(6, -0.0, dtype="<f4").tobytes())
    loaded = load_depth(path)
    assert loaded.values.shape == (2, 3)
    assert np.signbit(loaded.values).all() and (loaded.values == 0.0).all()


def test_loaded_depth_is_read_only_and_never_shared(tmp_path):
    path = tmp_path / "0.dpt"
    write_depth(path, DepthMap(width=3, height=2, values=np.arange(6, dtype=np.float32).reshape(2, 3)))
    first, second = load_depth(path), load_depth(path)
    assert not first.values.flags.writeable
    with pytest.raises(ValueError):
        first.values[0, 0] = 1.0
    assert not np.shares_memory(first.values, second.values)
    np.testing.assert_array_equal(first.values, second.values)


# ---------------------------------------------------------------------------
# Detections
# ---------------------------------------------------------------------------

def test_parse_two_frames(tmp_path):
    path = tmp_path / "det.jsonl"
    path.write_text(detection_line(frame=0) + "\n" + detection_line(frame=1) + "\n")
    frames = parse_detections(path)
    assert [f.frame_index for f in frames] == [0, 1]
    assert all(len(f.detections) == 1 for f in frames)


def test_parse_empty_file(tmp_path):
    path = tmp_path / "det.jsonl"
    path.write_text("")
    assert parse_detections(path) == []


def test_parse_invalid_box_cites_type_and_line(tmp_path):
    path = tmp_path / "det.jsonl"
    path.write_text(detection_line() + "\n" + detection_line(box=(5.0, 0.0, 2.0, 3.0)) + "\n")
    with pytest.raises(ValidationError, match="line 2.*Box2D"):
        parse_detections(path)


def test_parse_malformed_json_names_line(tmp_path):
    path = tmp_path / "det.jsonl"
    path.write_text(detection_line() + "\n{nope\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_detections(path)


def test_parse_skips_blank_lines_but_counts_them(tmp_path):
    path = tmp_path / "det.jsonl"
    path.write_text("\n" + detection_line(frame=0) + "\n   \n" + detection_line(frame=1) + "\n")
    assert [f.frame_index for f in parse_detections(path)] == [0, 1]
    path.write_text(detection_line() + "\n\n \n{nope\n")
    with pytest.raises(ParseError, match="line 4"):
        parse_detections(path)


def test_parse_orders_by_score_within_frame(tmp_path):
    path = tmp_path / "det.jsonl"
    lines = [detection_line(frame=0, score=s) for s in (0.2, 0.9, 0.5)]
    path.write_text("\n".join(lines) + "\n")
    frames = parse_detections(path)
    assert [d.score for d in frames[0].detections] == [0.9, 0.5, 0.2]


def test_parse_line_order_insensitive_for_distinct_scores(tmp_path):
    lines = [detection_line(frame=f, score=s)
             for f, s in ((1, 0.3), (0, 0.8), (0, 0.4), (1, 0.9))]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("\n".join(lines) + "\n")
    b.write_text("\n".join(reversed(lines)) + "\n")
    fa, fb = parse_detections(a), parse_detections(b)
    key = lambda frames: [(f.frame_index, [d.score for d in f.detections]) for f in frames]
    assert key(fa) == key(fb)


def test_write_then_parse_round_trip(tmp_path):
    dets = [make_detection(frame=0, score=0.9), make_detection(frame=1, score=0.4)]
    path = tmp_path / "det.jsonl"
    write_detections(path, dets)
    frames = parse_detections(path)
    assert [f.frame_index for f in frames] == [0, 1]
    got = frames[0].detections[0]
    assert got.mask == dets[0].mask
    np.testing.assert_array_equal(got.keypoints.joints, dets[0].keypoints.joints)


def test_detection_requires_box_mask_overlap():
    with pytest.raises(ValidationError, match="overlap"):
        make_detection(box=(2.5, 2.5, 3.5, 3.5), runs=((0, 2),))


def test_detection_score_range():
    with pytest.raises(ValidationError, match="score"):
        make_detection(score=1.5)


def test_value_types_holding_arrays_compare_and_hash_by_value():
    """``==`` compares arrays by value, and equal objects hash alike."""
    det = make_detection()
    same = make_detection(runs=np.array([[0, 4]]))
    assert det == same and hash(det) == hash(same)
    assert det.keypoints == make_keypoints() and hash(det.keypoints) == hash(make_keypoints())
    assert det.keypoints != make_keypoints(conf=0.5)
    assert det != make_detection(runs=((0, 3),))
    assert det != make_detection(score=0.5)
    assert det.keypoints != det.mask and det.mask != det.keypoints


def test_skeleton_root_index_must_name_a_joint():
    for root_index in (-1, 3):
        with pytest.raises(ValidationError, match=f"root_index {root_index} out of range"):
            Skeleton(name="trio", joint_names=("a", "b", "c"), root_index=root_index)
    assert Skeleton(name="trio", joint_names=("a", "b", "c"), root_index=2).root_index == 2


# ---------------------------------------------------------------------------
# Camera and config
# ---------------------------------------------------------------------------

def test_camera_project_round_trip():
    cam = CameraModel(fx=600.0, fy=580.0, cx=320.0, cy=240.0, world_scale=2.0)
    rng = np.random.default_rng(3)
    for _ in range(100):
        u, v = rng.uniform(0, 640), rng.uniform(0, 480)
        z = rng.uniform(0.5, 20.0)
        x, y = cam.back_project(u, v, z)
        u2, v2 = project(cam, x, y, z)
        assert math.isclose(u, u2, abs_tol=1e-6)
        assert math.isclose(v, v2, abs_tol=1e-6)


def test_camera_requires_positive_focal():
    with pytest.raises(ValidationError):
        CameraModel(fx=0.0, fy=1.0, cx=0.0, cy=0.0)


def test_config_defaults_and_round_trip(tmp_path):
    cfg = config_from_dict({"camera": {"fx": 600, "fy": 600, "cx": 320, "cy": 240}})
    assert cfg.tracker.iou_gate == 0.3
    assert cfg.tracker.max_gap == 10
    assert cfg.tracker.predictor_window == 5
    assert cfg.lifting.min_thickness == 0.2
    assert cfg.lifting.patch == 5

    path = tmp_path / "config.json"
    from pose3dtrack.ingest import write_config
    write_config(path, cfg)
    assert load_config(path) == cfg


def test_config_rejects_bad_mode():
    with pytest.raises(ValidationError):
        config_from_dict({
            "camera": {"fx": 1, "fy": 1, "cx": 0, "cy": 0},
            "tracker": {"association_mode": "euclid"},
        })
