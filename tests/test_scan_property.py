"""Property test for the encoder's type walk: ``jsonio._scan``, which reads
one nesting level per step, gives the verdict of the original recursive
walk (``oracles.reference_scan``) on random nested values, and on the
values both accept collects the same set of strings and the same float
values.  Values nest up to 500 deep and mix every type the walk accepts
with ones it rejects: a float subclass, a NumPy scalar, non-string keys,
float32 and bool arrays, and arrays that are not C-contiguous."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import reference_scan
from pose3dtrack.jsonio import _scan

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


class FloatSubclass(float):
    """A float subclass, which orjson rejects."""


@st.composite
def _arrays(draw):
    dtype = draw(st.sampled_from([np.float64, np.int64, np.float32, np.bool_]))
    array = draw(arrays(dtype, array_shapes(min_dims=0, max_dims=3, max_side=4)))
    if array.ndim and draw(st.booleans()):  # not C-contiguous
        array = array[::-1, ...] if draw(st.booleans()) else array.T
    return array


_leaves = st.one_of(
    st.text(max_size=4), st.integers(), st.booleans(), st.none(), st.floats(),
    st.floats().map(FloatSubclass), st.floats().map(np.float64), _arrays(),
)
_keys = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.none())


def _containers(children):
    return st.one_of(st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
                     st.dictionaries(_keys, children, max_size=4))


@st.composite
def values(draw):
    """A random tree of containers, wrapped in up to 500 more levels."""
    value = draw(st.recursive(_leaves, _containers, max_leaves=24))
    depth = draw(st.integers(0, 3) | st.integers(0, 500))
    for kind in draw(st.lists(st.sampled_from(["list", "tuple", "dict"]),
                              min_size=depth, max_size=depth)):
        value = [value] if kind == "list" else (value,) if kind == "tuple" else {"k": value}
    return value


def _float_bits(floats: list) -> np.ndarray:
    """The float values collected, as one sorted array of their bits."""
    return np.sort(np.concatenate([(), *floats], axis=None).view(np.int64))


@SETTINGS
@given(value=values())
def test_scan_by_level_agrees_with_the_recursive_walk(value):
    ref_texts, ref_floats = [], []
    texts, floats = set(), []
    verdict = _scan(value, texts, floats)
    assert verdict == reference_scan(value, ref_texts, ref_floats)
    if verdict:
        assert texts == set(ref_texts)
        assert np.array_equal(_float_bits(floats), _float_bits(ref_floats))


def test_scan_walks_a_value_nested_past_the_recursion_limit():
    value = [1e-05]
    for _ in range(5000):
        value = {"k": [value]}
    texts, floats = set(), []
    assert _scan(value, texts, floats)
    assert texts == {"k"} and _float_bits(floats).view(np.float64).tolist() == [1e-05]
