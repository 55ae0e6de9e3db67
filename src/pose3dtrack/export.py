"""Renderer-agnostic animation scene export.

A scene document carries everything a downstream renderer needs to animate
the tracked people: per-actor, per-frame joint positions in meters with an
observed/predicted flag, plus enough metadata to interpret them.  The
format is a single JSON document, laid out as ``json.dump(..., indent=2)``
lays it out, and round-trips losslessly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ParseError, ValidationError
from .ingest import get_skeleton, values_equal, values_hash
from .jsonio import encode, read_json
from .tracking import OBSERVED, PREDICTED, Track


@dataclass(frozen=True, eq=False)
class ActorSample:
    frame: int
    state: str  # "observed" | "predicted"
    joints: np.ndarray  # (J, 3) float64

    __eq__, __hash__ = values_equal, values_hash


@dataclass(frozen=True)
class Actor:
    actor_id: int
    birth_frame: int
    samples: tuple[ActorSample, ...]


@dataclass(frozen=True)
class SceneDocument:
    fps: float
    skeleton_id: str
    engine_version: str
    actors: tuple[Actor, ...]
    units: str = "meters"


_STATE_NAMES = {OBSERVED: "observed", PREDICTED: "predicted"}


def _checked_fps(fps: float) -> float:
    """``fps`` if it is finite and > 0, which a scene that is exported or
    read must have; ``write_scene`` lays out whatever document it is given."""
    if not (math.isfinite(fps) and fps > 0):
        raise ValidationError("SceneDocument: fps must be finite and > 0")
    return fps


def export_scene(tracks: list[Track], fps: float, skeleton_id: str) -> SceneDocument:
    """Flatten finalized tracks into a scene document."""
    joint_count = get_skeleton(skeleton_id).joint_count
    actors = []
    for track in sorted(tracks, key=lambda t: t.track_id):
        samples = []
        for state in track.states:
            if state.pose3d.joints.shape[0] != joint_count:
                raise ValidationError(
                    f"track {track.track_id}: pose has "
                    f"{state.pose3d.joints.shape[0]} joints, skeleton "
                    f"{skeleton_id!r} expects {joint_count}"
                )
            samples.append(ActorSample(
                frame=state.frame_index,
                state=_STATE_NAMES[state.kind],
                joints=state.pose3d.joints[:, :3].copy(),
            ))
        actors.append(Actor(actor_id=track.track_id,
                            birth_frame=track.birth_frame,
                            samples=tuple(samples)))
    return SceneDocument(fps=_checked_fps(fps), skeleton_id=skeleton_id,
                         engine_version=__version__, actors=tuple(actors))


def _integer(value, name: str) -> int:
    """``value`` if it is a JSON integer (not a bool), else a TypeError."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _string(value, name: str) -> str:
    """``value`` if it is a JSON string, else a TypeError."""
    if type(value) is not str:
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


def _sample_from_dict(actor_id: int, s: dict, joint_count: int) -> ActorSample:
    frame = _integer(s["frame"], "frame")
    if s["state"] not in _STATE_NAMES.values():
        raise ValidationError(f"actor {actor_id} frame {frame}: unknown state {s['state']!r}")
    joints = np.asarray(s["joints"], dtype=np.float64)
    if joints.shape != (joint_count, 3):
        raise ValidationError(f"actor {actor_id} frame {frame}: joints must have shape "
                              f"({joint_count}, 3), got {joints.shape}")
    if not np.isfinite(joints).all():
        raise ValidationError(f"actor {actor_id} frame {frame}: non-finite joint value")
    return ActorSample(frame=frame, state=s["state"], joints=joints)


def scene_from_dict(obj: dict) -> SceneDocument:
    meta = obj["metadata"]
    joint_count = get_skeleton(meta["skeleton"]).joint_count
    if not isinstance(obj["actors"], list):
        raise TypeError(f"actors must be a list, got {type(obj['actors']).__name__}")
    actors = []
    for a in obj["actors"]:
        actor_id = _integer(a["id"], "id")
        actors.append(Actor(
            actor_id=actor_id,
            birth_frame=_integer(a["birth"], "birth"),
            samples=tuple(_sample_from_dict(actor_id, s, joint_count) for s in a["samples"]),
        ))
    if type(meta["fps"]) not in (int, float):
        raise TypeError(f"fps must be a number, got {meta['fps']!r}")
    return SceneDocument(
        fps=_checked_fps(float(meta["fps"])),
        skeleton_id=meta["skeleton"],
        engine_version=_string(meta["engine_version"], "engine_version"),
        units=_string(meta.get("units", "meters"), "units"),
        actors=tuple(actors),
    )


def write_scene(path: str | Path, doc: SceneDocument) -> None:
    """Write ``doc`` as the exact bytes of ``json.dump(..., indent=2)``.

    The metadata and each actor go through ``jsonio.encode``, indented to
    their depth; actors are written one at a time, so only one actor's
    text is held at once.
    """
    metadata = encode({"fps": doc.fps, "skeleton": doc.skeleton_id, "units": doc.units,
                       "engine_version": doc.engine_version}, indent=True).replace(b"\n", b"\n  ")
    with open(path, "wb") as f:
        f.write(b'{\n  "metadata": ' + metadata + b',\n  "actors": ')
        separator = b"[\n    "
        for actor in doc.actors:
            for s in actor.samples:
                if s.joints.ndim != 2:
                    raise ValidationError(f"actor {actor.actor_id} frame {s.frame}: joints "
                                          f"must be 2-D, got shape {s.joints.shape}")
            text = encode({"id": actor.actor_id, "birth": actor.birth_frame, "samples": [
                {"frame": s.frame, "state": s.state, "joints": s.joints} for s in actor.samples]},
                indent=True)
            f.write(separator + text.replace(b"\n", b"\n    "))
            separator = b",\n    "
        f.write(b"\n  ]\n}\n" if doc.actors else b"[]\n}\n")


def read_scene(path: str | Path) -> SceneDocument:
    """Read a scene document; invalid JSON, a missing field and a
    mistyped one are a ParseError naming the file.  An fps that is not
    finite and > 0, an unknown skeleton, and joints not finite or not shaped
    (skeleton joint count, 3) are a ValidationError naming the file (and
    the actor and frame)."""
    path = Path(path)
    obj = read_json(path)
    try:
        return scene_from_dict(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"{path}: missing or malformed field ({e})") from None
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None
