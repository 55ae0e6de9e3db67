"""Differential property test for ``jsonio.decode``, the one JSON decoder
every input file goes through.  It must return exactly what ``json.loads``
returns: the same types, values, float bits and key order, and for an
invalid text the same ``JSONDecodeError`` (message, line and column).

Texts are built literal by literal rather than through ``json.dumps``, so
they hold number spellings the writer never produces: ``-0``, ``1E+05``,
25-digit integers, ``1e-400``, ``1e400``, ``NaN`` and ``Infinity``, and
duplicate keys, some spelled with escapes.  Fixed cases add deep nesting
and check which texts the guards send to ``json.loads``.  Lone surrogate characters are
outside the contract (``_decode`` raises ``UnicodeEncodeError`` on them; the
readers turn that into "invalid UTF-8"), and Hypothesis never draws them;
the escape ``\\ud800`` is drawn and must decode as ``json.loads`` does."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pose3dtrack import jsonio
from pose3dtrack.jsonio import decode as _decode
from pose3dtrack.tracking import OBSERVED, read_tracks

SETTINGS = settings(max_examples=600, deadline=None, derandomize=True, database=None)

EDGE_INTS = [sign * (2 ** bits + delta) for sign in (1, -1) for bits in (63, 64) for delta in (-1, 0, 1)]
SPECIAL_NUMBERS = ["NaN", "Infinity", "-Infinity", "-0", "-0.0", "0", "1e-400", "-1e-400", "1e400",
                   "-1e400", "4.9e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
                   "0.1000000000000000055511151231257827021181583404541015625"]
SPECIAL_STRINGS = ['"\\ud800"', '"\\udfff"', '"\\ud800x"', '"\\ud83d\\ude00"', '"\\u00e9"', '"é☃😀"',
                   '"\\"\\\\\\/\\b\\f\\n\\r\\t"']

_ints = (st.integers().map(str)
         | st.sampled_from(EDGE_INTS).map(str)
         | st.integers(10 ** 24, 10 ** 25 - 1).map(str)
         | st.integers(-(10 ** 25) + 1, -(10 ** 24)).map(str))
# Every magnitude: Python's shortest repr of any finite double, and decimal
# spellings with long fractions and exponents far outside the double range.
_floats = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
           | st.from_regex(r"-?(0|[1-9][0-9]{0,30})(\.[0-9]{1,40})?([eE][+-]?[0-9]{1,3})?",
                           fullmatch=True))
_strings = (st.text(max_size=12).flatmap(
                lambda s: st.sampled_from([json.dumps(s), json.dumps(s, ensure_ascii=False)]))
            | st.sampled_from(SPECIAL_STRINGS))
_scalars = (_ints | _floats | _strings | st.sampled_from(SPECIAL_NUMBERS)
            | st.sampled_from(["true", "false", "null"]))
_space = st.sampled_from(["", "", " ", "\n", "\t", "\r\n  "])
# Few keys, some spelled two ways ("a" and "\u0061"), so objects repeat keys.
_keys = st.sampled_from(['"a"', '"b"', '"\\u0061"', '"é"', '"\\u00e9"', '""', '"id"'])


def _join(draw, items: list[str], open_: str, close: str) -> str:
    sep = [draw(_space) + "," + draw(_space) for _ in items[1:]]
    body = items[0] if items else ""
    for s, item in zip(sep, items[1:]):
        body += s + item
    return open_ + draw(_space) + body + draw(_space) + close


@st.composite
def _array(draw, children):
    return _join(draw, draw(st.lists(children, max_size=5)), "[", "]")


@st.composite
def _object(draw, children):
    pairs = draw(st.lists(st.tuples(_keys, children), max_size=5))
    items = [k + draw(_space) + ":" + draw(_space) + v for k, v in pairs]
    return _join(draw, items, "{", "}")


documents = st.recursive(_scalars, lambda c: _array(c) | _object(c), max_leaves=20).flatmap(
    lambda doc: st.tuples(_space, _space).map(lambda ws: ws[0] + doc + ws[1]))

_MUTATION_CHARS = '{}[],:"\\0123456789.eE+-ntrufalsNIy \t\n\x00\x1fé'


@st.composite
def mutated(draw):
    """A valid document with one character deleted, inserted or replaced."""
    doc = draw(documents)
    pos = draw(st.integers(0, len(doc)))
    char = draw(st.sampled_from(_MUTATION_CHARS))
    how = draw(st.sampled_from(["delete", "insert", "replace"]))
    if how == "insert" or pos == len(doc):
        return doc[:pos] + char + doc[pos:]
    return doc[:pos] + ("" if how == "delete" else char) + doc[pos + 1:]


def same(a, b) -> bool:
    """Equal by type and value, floats by ``.hex()`` (so -0.0 and NaN
    count), dicts also by key order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def outcome(decode, text):
    try:
        return "value", decode(text)
    except json.JSONDecodeError as e:
        return "error", (e.msg, e.lineno, e.colno)
    except RecursionError:
        return "error", "RecursionError"


def assert_same_outcome(text):
    got, want = outcome(_decode, text), outcome(json.loads, text)
    assert got[0] == want[0], text
    if want[0] == "value":
        assert same(got[1], want[1]), text
    else:
        assert got[1] == want[1], text


@SETTINGS
@given(documents)
def test_decode_equals_json_loads_on_valid_documents(text):
    assert outcome(json.loads, text)[0] == "value"
    assert_same_outcome(text)


@SETTINGS
@given(mutated())
def test_decode_equals_json_loads_on_one_character_mutations(text):
    assert_same_outcome(text)


@pytest.mark.parametrize("text", [
    *SPECIAL_NUMBERS, *SPECIAL_STRINGS, *map(str, EDGE_INTS),
    "1" * 19, "-" + "9" * 19, "[1.5, 1234567890123456789012345]", '{"a": 1, "a": 2.5, "b": -0}',
    "", " ", "[1,]", "01", "1.", '"\t"', "﻿[]", "[1] 2", '{"a" 1}',
])
def test_decode_equals_json_loads_on_edge_texts(text):
    assert_same_outcome(text)


@pytest.mark.parametrize("depth", [200, 201, 250, 5000, 100_000])
def test_decode_equals_json_loads_on_deep_nesting(depth):
    # orjson 3.8 decodes any depth and crashes the interpreter somewhere
    # below 100,000 nested objects; json.loads raises RecursionError.
    assert_same_outcome("[" * depth + "]" * depth)
    assert_same_outcome('{"a":' * depth + "1" + "}" * depth)


@pytest.mark.parametrize("text, by_orjson", [
    ('{"frame": 3, "box": [0.5, 1e-05, 2.0, 3.0]}', True),
    ("[123456789012345678]", True),  # 18 digits: below 2**63
    ("[0.0000000000000000000000001234]", True),  # fraction digits are not an integer part
    ("[1234567890123456789]", False),  # 19 digits: may be past int64/uint64
    ("-1234567890123456789", False),
    ("1234567890123456789", False),
    ("[NaN]", False),  # orjson rejects it
    ("[" * 200 + "]" * 200, True),
    ("[" * 201 + "]" * 201, False),  # deeper than the nesting guard allows
    ('["]]]\\"]]]\\\\", ' + "[" * 199 + "]" * 199 + "]", True),  # brackets in strings do not nest
    ('["[[[\\"[[[\\\\", ' + "[" * 199 + "]" * 199 + "]", True),
    ('["]]]", ' + "[" * 200 + "]" * 200 + "]", False),
])
def test_decode_uses_orjson_unless_a_guard_trips_or_orjson_rejects(monkeypatch, text, by_orjson):
    fallbacks = []
    loads = json.loads
    monkeypatch.setattr(jsonio.json, "loads", lambda t: fallbacks.append(t) or loads(t))
    got = _decode(text)
    monkeypatch.undo()
    assert same(got, json.loads(text))
    assert fallbacks == ([] if by_orjson else [text])


def test_decode_raises_on_a_lone_surrogate_character():
    with pytest.raises(UnicodeEncodeError):
        _decode('{"a": "\udcff"}')


def test_read_tracks_reads_an_id_past_uint64_as_an_int(tmp_path):
    state = {"frame": 0, "kind": OBSERVED, "box3d": [-0.5, 0.5, -1.0, 1.0, 1.8, 2.2],
             "pose3d": [[0.0, 0.0, 2.0, 1.0]] * 15}
    path = tmp_path / "tracks.jsonl"
    path.write_text(json.dumps({"header": {"fps": 20.0}}) + "\n"
                    + json.dumps({"id": 2 ** 64, "birth": 0, "states": [state]}) + "\n")
    _, tracks = read_tracks(path)
    assert type(tracks[0].track_id) is int and tracks[0].track_id == 18446744073709551616
