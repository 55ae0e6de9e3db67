"""``tracking.predict`` reads only its window's states, builds each block in
one call and fits the 3D box, joint and 2D box blocks on one shared time
base.  On random tracks it must give the bits of the first formula,
``oracles.reference_predict``, or raise the same error.

Each drawn track puts its values at one binade, and the binades run over
the whole float64 range, subnormals and the overflowing top included.
"""

from dataclasses import astuple

import numpy as np
import pytest

from oracles import reference_predict
from pose3dtrack.errors import PoseTrackError, ValidationError
from pose3dtrack.geometry import Box3D
from pose3dtrack.ingest import BASIC15, Box2D
from pose3dtrack.pose3d import Pose3D
from pose3dtrack.tracking import OBSERVED, PREDICTED, Track, TrackState, predict

J = BASIC15.joint_count
EXPONENTS = range(-1074, 1024)  # every binade of float64


def _floats(rng, size, exponent):
    """Random signed floats within a few binades of 2**exponent."""
    exps = np.clip(exponent + rng.integers(-3, 4, size), -1074, 1023)
    return np.ldexp(rng.uniform(-1.0, 1.0, size), exps)


def _extents(rng, pairs, exponent, narrowing=None):
    """``pairs`` (lo, hi) extents with lo < hi, flattened in box order; with
    ``narrowing`` = (step, of) the extents shrink to a sliver at step ``of``."""
    if narrowing is not None:
        step, of = narrowing
        centre = np.ldexp(np.linspace(-0.5, 0.5, pairs), exponent)
        half = np.ldexp(np.full(pairs, (of - step + 1) / (of + 1)), exponent - 2)
        lo, hi = centre - half, centre + half
    else:
        a, b = _floats(rng, pairs, exponent), _floats(rng, pairs, exponent)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
    hi = np.where(lo < hi, hi, np.nextafter(lo, np.inf))
    return [v for pair in zip(lo.tolist(), hi.tolist()) for v in pair]


def random_track(rng, exponent):
    """A track of 1-11 states, predicted ones among the observed, with 2D
    boxes on all, none or some states; one track in four narrows its boxes
    so that the fit inverts them."""
    count = int(rng.integers(1, 12))
    frames = int(rng.integers(-50, 10**6)) + np.cumsum(rng.integers(1, 4, count))
    kinds = rng.choice([OBSERVED, PREDICTED], count, p=[0.7, 0.3])
    if rng.random() < 0.95:
        kinds[int(rng.integers(count))] = OBSERVED  # a track with no observation is rare
    with_2d = rng.choice(["all", "none", "some"])
    narrows = rng.random() < 0.25
    track = Track(track_id=0, birth_frame=int(frames[0]))
    for k, (frame, kind) in enumerate(zip(frames.tolist(), kinds.tolist())):
        narrowing = (k, count) if narrows else None
        joints = np.column_stack([_floats(rng, (J, 3), exponent), rng.uniform(0.0, 1.0, J)])
        box2d = None
        if with_2d == "all" or with_2d == "some" and rng.random() < 0.7:
            x0, x1, y0, y1 = _extents(rng, 2, exponent, narrowing)
            box2d = Box2D(x0, y0, x1, y1)
        track.states.append(TrackState(
            frame, kind, Box3D(*_extents(rng, 3, exponent, narrowing)),
            Pose3D(joints=joints, root_index=BASIC15.root_index, skeleton_id=BASIC15.name),
            box2d=box2d))
    return track


def _outcome(fn, track, window, target):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(track, window, target)
    except PoseTrackError as e:
        return type(e), str(e)


def _bits(outcome):
    """The outcome with every float as its bit pattern."""
    if not isinstance(outcome[0], Box3D):
        return outcome
    box, pose, box2d = outcome
    return ([float(v).hex() for v in astuple(box)],
            (pose.joints.dtype, pose.joints.shape, pose.joints.tobytes(),
             pose.root_index, pose.skeleton_id),
            None if box2d is None else [float(v).hex() for v in astuple(box2d)])


def test_predict_equals_the_first_formula_bit_for_bit_in_every_binade():
    rng = np.random.default_rng(29)
    seen = {"value": 0, "error": 0, "one observation": 0, "3D fallback": 0,
            "2D fallback": 0, "no 2D box": 0}
    for exponent in EXPONENTS:
        track = random_track(rng, exponent)
        window = int(rng.integers(1, 7))
        target = track.states[-1].frame_index + int(rng.integers(1, 15))
        got = _outcome(predict, track, window, target)
        want = _outcome(reference_predict, track, window, target)
        assert got == want
        assert _bits(got) == _bits(want)
        if not isinstance(got[0], Box3D):
            seen["error"] += 1
            continue
        seen["value"] += 1
        observed = [s for s in track.states if s.kind == OBSERVED][-window:]
        seen["one observation"] += len(observed) == 1
        seen["3D fallback"] += len(observed) > 1 and got[0] is observed[-1].box3d
        seen["2D fallback"] += len(observed) > 1 and got[2] is observed[-1].box2d is not None
        seen["no 2D box"] += got[2] is None
    # Every branch is taken; the errors are the overflows of the top binades.
    assert min(seen.values()) >= 5, seen


def test_predict_reads_no_state_before_its_window():
    rng = np.random.default_rng(7)
    track = random_track(rng, 0)
    states = [s for s in track.states if s.kind == OBSERVED]

    class Unread:
        def __getattr__(self, name):
            raise AssertionError(f"a state before the window was read ({name})")

    window = len(states)
    target = track.states[-1].frame_index + 3
    want = _outcome(reference_predict, track, window, target)
    track.states[:0] = [Unread()] * 1000
    assert _bits(_outcome(predict, track, window, target)) == _bits(want)


@pytest.mark.parametrize("kinds", [[], [PREDICTED], [PREDICTED, PREDICTED]])
def test_predict_without_an_observed_state_is_an_error_as_before(kinds):
    box = Box3D(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    pose = Pose3D(joints=np.ones((J, 4)), root_index=BASIC15.root_index,
                  skeleton_id=BASIC15.name)
    track = Track(track_id=0, birth_frame=0,
                  states=[TrackState(f, kind, box, pose) for f, kind in enumerate(kinds)])
    assert _outcome(predict, track, 3, 5) == _outcome(reference_predict, track, 3, 5) == (
        ValidationError, "predict: track has no observed state")
