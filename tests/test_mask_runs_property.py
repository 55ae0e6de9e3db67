"""Property tests for mask runs held as one (n, 2) int64 array: the NumPy
run check accepts and rejects exactly like the original per-run loop, with
the same message; ``mask_indices`` decodes the runs; and the closed-form
box/mask overlap test agrees with the original row-by-row scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decode_mask, reference_box_overlaps_mask, reference_mask_check
from pose3dtrack.errors import ValidationError
from pose3dtrack.ingest import Box2D, Mask2D, _box_overlaps_mask, mask_indices

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)

INT64_MAX = 2**63 - 1

# Small frames for pixel-level checks, and frames of 2**62 up to 2**63 - 1
# pixels, where start + length of a bad run no longer fits in int64.
SMALL_DIMS = st.tuples(st.integers(1, 40), st.integers(1, 30))
BIG_DIMS = st.sampled_from([(2**31, 2**31), (2**62, 1), (3, INT64_MAX // 3), (1, INT64_MAX)])

FAULTS = ("zero_length", "negative_length", "min_length", "overlap", "touch",
          "past_end", "huge_length", "huge_start", "min_start")


def _canonical_runs(base, lengths, gaps):
    """Runs of the given lengths from ``base`` on, each gap >= 1; stops
    before a value would leave int64."""
    runs, pos = [], base
    for length, gap in zip(lengths, gaps):
        if pos + length > INT64_MAX:
            break
        runs.append([pos, length])
        pos += length + gap
    return runs


def _inject(runs, total, index, fault, k):
    """Break run ``index`` in one way; k >= 1 sizes the fault."""
    start, length = runs[index]
    prev_end = runs[index - 1][0] + runs[index - 1][1] if index else -1
    if fault == "zero_length":
        runs[index] = [start, 0]
    elif fault == "negative_length":
        runs[index] = [start, -k]
    elif fault == "min_length":
        runs[index] = [start, -INT64_MAX - 1]
    elif fault == "overlap":
        runs[index] = [prev_end - k, length]
    elif fault == "touch":
        runs[index] = [prev_end, length]
    elif fault == "past_end":
        runs[index] = [start, min(max(total - start, 0) + k, INT64_MAX)]
    elif fault == "huge_length":
        runs[index] = [start, INT64_MAX - k % 4]
    elif fault == "huge_start":
        runs[index] = [INT64_MAX - k % 4, length]
    else:  # "min_start"
        runs[index] = [-INT64_MAX - 1 + k % 4, length]


def _outcome(check, width, height, runs):
    try:
        check(width, height, runs)
    except ValidationError as e:
        return str(e)
    return None


def _assert_same_outcome(width, height, runs):
    got = _outcome(Mask2D, width, height, runs)
    assert got == _outcome(reference_mask_check, width, height, runs)
    return got


@st.composite
def run_lists(draw, dims):
    width, height = draw(dims)
    total = width * height
    n = draw(st.integers(0, 80))
    base = draw(st.integers(0, 40) | st.integers(-3, -1)
                | st.sampled_from([total // 2, total - 400, 2**62 - 400, INT64_MAX - 400]))
    runs = _canonical_runs(base, draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)),
                           draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    for _ in range(draw(st.integers(0, 2)) if runs else 0):
        _inject(runs, total, draw(st.integers(0, len(runs) - 1)), draw(st.sampled_from(FAULTS)),
                draw(st.integers(1, 3) | st.integers(1, INT64_MAX)))
    return width, height, runs


@st.composite
def canonical_masks(draw):
    """Valid runs in a frame just tall enough to hold them."""
    n, width = draw(st.integers(0, 80)), draw(st.integers(1, 40))
    runs = _canonical_runs(draw(st.integers(0, 40)),
                           draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)),
                           draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    end = runs[-1][0] + runs[-1][1] if runs else 1
    return width, -(-end // width) + draw(st.integers(0, 2)), runs


@SETTINGS
@given(case=run_lists(SMALL_DIMS | BIG_DIMS))
def test_mask_check_matches_reference_loop(case):
    _assert_same_outcome(*case)


@SETTINGS
@given(width=st.integers(1, 2**31), height=st.integers(1, 2**31),
       runs=st.lists(st.lists(st.integers(-INT64_MAX - 1, INT64_MAX), min_size=2, max_size=2),
                     max_size=40))
def test_mask_check_matches_reference_loop_on_arbitrary_runs(width, height, runs):
    _assert_same_outcome(width, height, runs)


@pytest.mark.parametrize("n", [1, 2, 32, 33, 80])
@pytest.mark.parametrize("fault", FAULTS)
def test_mask_check_names_each_fault_at_each_position(n, fault):
    """Every fault at the first, a middle and the last run, on masks short
    enough for the per-run scan and long enough for the NumPy search."""
    for width, height in ((40, 30), (1, INT64_MAX)):
        base = 0 if width == 40 else INT64_MAX - 8 * n
        for index in sorted({0, n // 2, n - 1}):
            for k in (1, 2, 2**62):
                runs = _canonical_runs(base, [3] * n, [2] * n)
                _inject(runs, width * height, index, fault, k)
                message = _assert_same_outcome(width, height, runs)
                if fault in ("zero_length", "negative_length", "min_length", "overlap", "touch"):
                    assert message is not None


@SETTINGS
@given(case=canonical_masks())
def test_accepted_runs_are_a_read_only_int64_array(case):
    width, height, runs = case
    assert _outcome(reference_mask_check, width, height, runs) is None
    mask = Mask2D(width, height, runs)
    assert mask.runs.dtype == np.int64 and mask.runs.shape == (len(runs), 2)
    assert mask.runs.tolist() == runs
    assert not mask.runs.flags.writeable
    assert mask == Mask2D(width, height, tuple(map(tuple, runs)))
    assert mask_indices(mask).tolist() == sorted(decode_mask(mask))


# Box corners as fractions of the frame, a little past each edge.
_fractions = st.lists(st.floats(-0.2, 1.2), min_size=2, max_size=2, unique=True).map(sorted)


@SETTINGS
@given(case=canonical_masks(), xs=_fractions, ys=_fractions)
def test_box_overlap_matches_reference_scan(case, xs, ys):
    width, height, runs = case
    box = Box2D(xs[0] * width, ys[0] * height, xs[1] * width, ys[1] * height)
    if not _clamps(box, width, height):
        return  # empty after clamping: Detection rejects it before the overlap test
    assert (_box_overlaps_mask(box, Mask2D(width, height, runs))
            == reference_box_overlaps_mask(box, width, height, runs))


def test_box_overlap_matches_reference_scan_for_every_single_run():
    """Every one-run mask of a 4x3 frame against every box with corners on
    the half-pixel grid, so runs ending or starting next to a box edge, and
    wrapping rows, are all met."""
    width, height = 4, 3
    xs = [k / 2 for k in range(-1, 2 * width)]
    ys = [k / 2 for k in range(-1, 2 * height)]
    boxes = [Box2D(x0, y0, x1, y1) for x0 in xs for x1 in xs if x0 < x1
             for y0 in ys for y1 in ys if y0 < y1]
    boxes = [box for box in boxes if _clamps(box, width, height)]
    total = width * height
    for start in range(total):
        for length in range(1, total - start + 1):
            mask = Mask2D(width, height, ((start, length),))
            for box in boxes:
                assert (_box_overlaps_mask(box, mask)
                        == reference_box_overlaps_mask(box, width, height, [[start, length]]))


def _clamps(box, width, height):
    try:
        box.clamp(width, height)
    except ValidationError:
        return False
    return True


def test_runs_are_copied_from_a_caller_array():
    runs = np.array([[0, 2], [5, 1]], dtype=np.int64)
    mask = Mask2D(4, 2, runs)
    runs[0, 1] = 3
    assert runs.flags.writeable and mask.runs.tolist() == [[0, 2], [5, 1]]


def test_no_runs_is_an_empty_pair_array():
    assert Mask2D(3, 3, ()).runs.shape == (0, 2)
    assert mask_indices(Mask2D(3, 3, ())).size == 0


def test_equality_compares_size_and_runs():
    mask = Mask2D(4, 2, ((0, 2), (5, 1)))
    assert mask == Mask2D(4, 2, np.array([[0, 2], [5, 1]]))
    assert mask != Mask2D(4, 2, ((0, 2), (5, 2)))
    assert mask != Mask2D(8, 1, ((0, 2), (5, 1)))
    assert mask != ((0, 2), (5, 1))


@pytest.mark.parametrize("runs", [((0, 1, 2),), (0, 1), [[[0, 1]]]])
def test_runs_that_are_not_pairs_are_rejected(runs):
    with pytest.raises(ValidationError, match="pairs"):
        Mask2D(4, 4, runs)


def test_more_pixels_than_int64_indexes_are_rejected():
    with pytest.raises(ValidationError, match="int64"):
        Mask2D(2**32, 2**31, ())
