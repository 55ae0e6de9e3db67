"""Command-line entry point: track, eval, synth, export.

Exit codes: 0 on success, 1 on runtime or validation failure, 2 on usage
errors.  All outputs are deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import PoseTrackError
from .ingest import BASIC15, load_config, load_sequence
from .export import export_scene, write_scene
from .jsonio import encode
from .metrics import auc_rel, ground_truth_from_tracks, matched_pose_pairs, mota, pck3d_rel
from .synth import BUILTIN_NAMES, builtin, load_scenario, write_scenario_bundle
from .tracking import OBSERVED, PREDICTED, read_tracks, run_sequence, write_tracks


def cmd_track(ns: argparse.Namespace) -> int:
    cfg = load_config(ns.config)
    tracker_cfg = cfg.tracker
    if ns.mode is not None:
        tracker_cfg = replace(tracker_cfg, association_mode=ns.mode)
    seq = load_sequence(ns.detections, ns.depth_dir, cfg.camera, skeleton_id=cfg.skeleton_id)
    tracks = run_sequence(seq, tracker_cfg, lifting=cfg.lifting)
    write_tracks(ns.out, tracks, skeleton_id=cfg.skeleton_id, fps=cfg.fps,
                 tracker_cfg=tracker_cfg)
    observed = sum(1 for t in tracks for s in t.states if s.kind == OBSERVED)
    predicted = sum(1 for t in tracks for s in t.states if s.kind == PREDICTED)
    print(f"tracks={len(tracks)} frames={len(seq.frames)} "
          f"observed={observed} predicted={predicted}")
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    _, pred_tracks = read_tracks(ns.tracks)
    gt = ground_truth_from_tracks(read_tracks(ns.gt)[1])
    if ns.metric == "mota":
        report = mota(gt, pred_tracks, radius=ns.radius).to_dict()
    else:
        pairs = matched_pose_pairs(gt, pred_tracks, radius=ns.radius)
        if ns.metric == "pck3d":
            report = pck3d_rel(pairs, tau=ns.tau).to_dict()
        else:
            report = {"auc_rel": auc_rel(pairs), "radius": ns.radius}
    print(encode(report, indent=True).decode())
    return 0


def cmd_synth(ns: argparse.Namespace) -> int:
    path = None
    if ns.scenario in BUILTIN_NAMES:
        sc = builtin(ns.scenario, seed=ns.seed if ns.seed is not None else 0,
                     depth_noise=ns.noise)
    else:
        path = Path(ns.scenario)
        if not path.is_file():
            raise PoseTrackError(
                f"unknown scenario {ns.scenario!r} and no such file; "
                f"built-ins: {', '.join(BUILTIN_NAMES)}"
            )
        sc = load_scenario(path)
        if ns.seed is not None:
            sc = replace(sc, seed=ns.seed)
        if ns.noise != 0.0:  # 0, the default, keeps the file's own noise
            sc = replace(sc, depth_noise=ns.noise)
    try:
        paths = write_scenario_bundle(sc, ns.out_dir)
    except PoseTrackError as e:
        if path is None:
            raise
        raise type(e)(f"{path}: {e}") from None
    print(f"scenario={sc.name} frames={sc.frames} persons={len(sc.persons)} "
          f"out={paths['detections'].parent}")
    return 0


def cmd_export(ns: argparse.Namespace) -> int:
    header, tracks = read_tracks(ns.tracks)
    fps = ns.fps if ns.fps is not None else float(header.get("fps", 30.0))
    doc = export_scene(tracks, fps=fps, skeleton_id=header.get("skeleton", BASIC15.name))
    write_scene(ns.out, doc)
    samples = sum(len(a.samples) for a in doc.actors)
    print(f"actors={len(doc.actors)} samples={samples} out={ns.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pose3dtrack",
        description="3D multi-person pose lifting, tracking, evaluation and export",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="lift detections and track identities")
    p_track.add_argument("--detections", required=True)
    p_track.add_argument("--depth-dir", required=True)
    p_track.add_argument("--config", required=True)
    p_track.add_argument("--out", required=True)
    p_track.add_argument("--mode", choices=["iou3d", "iou2d"], default=None,
                         help="override the configured association mode")
    p_track.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("eval", help="score tracks against ground truth")
    p_eval.add_argument("--tracks", required=True)
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--metric", required=True, choices=["mota", "pck3d", "auc"])
    p_eval.add_argument("--radius", type=float, default=0.5,
                        help="root-distance match radius in meters")
    p_eval.add_argument("--tau", type=float, default=0.15,
                        help="correct-keypoint threshold in meters")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene bundle")
    p_synth.add_argument("--scenario", required=True,
                         help=f"built-in name ({', '.join(BUILTIN_NAMES)}) or a JSON file")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--seed", type=int, default=None,
                         help="override the scenario seed (default 0 for built-ins)")
    p_synth.add_argument("--noise", type=float, default=0.0,
                         help="depth noise sigma in meters")
    p_synth.set_defaults(func=cmd_synth)

    p_export = sub.add_parser("export", help="export tracks as an animation scene")
    p_export.add_argument("--tracks", required=True)
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--fps", type=float, default=None)
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (PoseTrackError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
