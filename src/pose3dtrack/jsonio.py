"""The one JSON codec for every file the engine reads or writes: the values
of ``json.loads`` and the text of ``json.dumps``, through orjson."""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Any

import numpy as np
import orjson

from .errors import ParseError

# ``decode``'s guards read one shape of the text: digits become "0", "{"
# and "}" become "[" and "]", ".", brackets, quotes and backslashes stay,
# and every other byte becomes a space.  So 19 zeros after neither a zero
# nor a "." mark an integer part of 19 or more digits.
_SHAPE = bytes(48 if 48 <= b <= 57 else 91 if b == 123 else 93 if b == 125
               else b if b in b'.[]"\\' else 32 for b in range(256))
_LONG_INTEGER = b"0" * 19
# Far below the about 1000 levels at which ``json.loads`` raises
# RecursionError; orjson 3.8 has no depth limit, and 100,000 nested objects
# crash the interpreter.
_MAX_NESTING = 200
# In a ``_SHAPE``, a string, or (group 1) an integer part of more than the
# 4300 digits ``json.loads`` converts that no fraction follows.
_HUGE_INTEGER = re.compile(rb'"(?:[^"\\]|\\.)*"|(?<![0.])(0{4301})(?!0*\.)')


def _safe_for_orjson(shape: bytes) -> bool:
    """Whether the JSON text of ``shape`` (its ``_SHAPE``) has no integer
    part of 19 or more digits and nests at most ``_MAX_NESTING`` deep.
    Exact for valid JSON, but for digit runs in strings and exponents; an
    invalid text may read as deeper.  Both only send a text to ``json.loads``."""
    at = shape.find(_LONG_INTEGER)
    while at > 0 and shape[at - 1] in b"0.":  # inside a fraction, or a run already seen
        at = shape.find(_LONG_INTEGER, at + 1)
    if at >= 0:
        return False
    if b"\\" in shape:  # drop escapes, so each quote left opens or closes a string
        shape = shape.replace(b"\\\\", b"").replace(b'\\"', b"")
    brackets = b"".join(shape.translate(None, b" .0\\").split(b'"')[::2])
    for _ in range(_MAX_NESTING):  # each pass removes the innermost level
        if not brackets:
            return True
        brackets = brackets.replace(b"[]", b"")
    return not brackets


def decode(text: str) -> Any:
    """``json.loads(text)``, through orjson wherever orjson gives the same.

    On a text it accepts, orjson 3.8 returns ``json.loads``'s types, float
    bits, key order and last-wins duplicate keys, except that an integer
    past int64/uint64 comes back as a float.  So ``json.loads`` decodes a
    text with an integer part of 19 or more digits (the guard also trips on
    digit runs in strings and exponents, which only costs speed), one that
    nests deeper than ``_MAX_NESTING``, and every text orjson rejects
    (``NaN``, ``Infinity``, ``1e400``, a lone ``\\ud800`` escape, invalid
    JSON), with its values and its ``JSONDecodeError``.  A text holding a
    lone surrogate, which is how ``errors="surrogateescape"`` keeps a byte
    that is not UTF-8, raises ``UnicodeEncodeError``.
    """
    data = text.encode()
    if _safe_for_orjson(data.translate(_SHAPE)):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    return json.loads(text)


def decode_at(path: Path, text: str, line: int | None = None) -> Any:
    """``decode(text)`` of a whole document read from ``path``, or of its
    line ``line``; a text it cannot decode is a ParseError naming the file
    and the line (in a document, the fault's; none for nesting about 1000
    deep, and for a long integer the first 4301-digit integer part's)."""
    try:
        return decode(text)
    except UnicodeEncodeError as e:
        problem, pos = f"invalid UTF-8 (byte {ord(text[e.start]) - 0xDC00:#04x})", e.start
    except json.JSONDecodeError as e:
        problem, pos = f"invalid JSON ({e.msg})", e.pos
    except RecursionError as e:  # nesting about 1000 deep, at no known position
        problem, pos = f"invalid JSON ({e})", None
    except ValueError as e:  # an integer past 4300 digits: the first outside strings
        data = text.encode()
        found = (m.start(1) for m in _HUGE_INTEGER.finditer(data.translate(_SHAPE)) if m[1])
        at = next(found, None)
        problem, pos = f"invalid JSON ({e})", None if at is None else len(data[:at].decode())
    if line is None and pos is not None:
        line = text.count("\n", 0, pos) + 1
    raise ParseError(f"{path}: {problem}", line=line)


def read_json(path: Path) -> Any:
    """The JSON document in ``path``, decoded by :func:`decode_at`."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        return decode_at(path, f.read())


def json_lines(path: Path) -> Iterator[tuple[int, Any]]:
    """Yield (line number, decoded object) for each non-blank line of a
    JSON-lines file; invalid UTF-8 or JSON is a ParseError naming the file
    and line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                yield lineno, decode_at(path, line, lineno)


def json_int(value: Any, name: str, path: Path, lineno: int) -> int:
    """``value`` if it is a JSON integer (not a bool), else a ParseError naming it."""
    if type(value) is not int:
        raise ParseError(f"{path}: {name!r} must be a JSON integer, got {value!r}", line=lineno)
    return value


# Strings orjson writes as ``json.dumps`` does, holding no separator or
# token boundary for ``encode``'s rewrites to reach into.  A number token
# in orjson's output (with ", " and ": " put back) starts after "[", a
# space or nothing and ends before ",", "]", "}", a newline or nothing.
_PLAIN_TEXT = re.compile(r"[\w.-]*", re.ASCII).fullmatch
_MAX_REWRITES = 32  # each value rewritten scans the text; json.dumps costs 40 or more
_FLOAT64 = np.dtype(np.float64)
_ARRAY_DTYPES = {_FLOAT64, np.dtype(np.int64)}
_TYPES = {dict, list, tuple, str, float, int, bool, type(None), np.ndarray}
_UNCOLLECTED = {int, bool, type(None)}  # written alike by both encoders


def _scan(obj: Any, texts: set, floats: list) -> bool:
    """Whether orjson writes ``obj`` as ``json.dumps`` does if the strings
    put in ``texts`` are plain and the floats put in ``floats`` need no
    rewrite; false on any other type (a float32 array, a float subclass).
    One nesting level per step: once a level holds only ``_TYPES``, each
    ``kind.__instancecheck__`` picks out exactly the values of that type."""
    level = [obj]
    while level:
        kinds = set(map(type, level))
        if not kinds <= _TYPES:
            return False
        of = {kind: list(filter(kind.__instancecheck__, level)) for kind in kinds - _UNCOLLECTED}
        dicts = of.get(dict, ())
        texts.update(of.get(str, ()), chain.from_iterable(dicts))
        floats.append(of.get(float, ()))
        arrays = of.get(np.ndarray, ())
        dtypes = set(map(attrgetter("dtype"), arrays))
        if not dtypes <= _ARRAY_DTYPES:
            return False
        floats.extend(arrays if dtypes <= {_FLOAT64} else
                      [a for a in arrays if a.dtype == _FLOAT64])
        level = list(chain.from_iterable(chain(
            map(dict.values, dicts), of.get(list, ()), of.get(tuple, ()))))
    return True


def _array_as_list(obj: Any) -> list:
    """``json.dumps``'s ``default``: an array as its ``tolist()``, any other
    type with ``json``'s own error."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def encode(obj: Any, indent: bool = False) -> bytes:
    """``json.dumps(obj)``, or with ``indent=2``, as bytes (arrays as their
    ``tolist()``).  orjson 3.8 writes ``float.__repr__``'s digits, but not
    its exponent notation (nonzero |x| < 1e-4 or >= 1e16: ``1e-05`` is
    orjson's ``0.00001``); one reduction finds those floats, whose whole
    tokens are rewritten.  ``json.dumps`` writes any text orjson cannot:
    non-finite floats, strings not plain, integers past 64 bits, ..."""
    texts, floats = set(), [()]  # np.concatenate needs one item
    try:
        data = _scan(obj, texts, floats) and _PLAIN_TEXT("".join(texts)) and orjson.dumps(
            obj, option=orjson.OPT_SERIALIZE_NUMPY | (orjson.OPT_INDENT_2 if indent else 0))
    except TypeError:  # a key that is not a string, an integer past 64 bits, ...
        data = None
    values = np.concatenate(floats, axis=None)
    magnitude = np.abs(values)
    odd = values[~((magnitude >= 1e-4) & (magnitude < 1e16)) & (magnitude != 0)]
    if not data or odd.size > _MAX_REWRITES or not np.isfinite(odd).all():
        return json.dumps(obj, indent=2 if indent else None, default=_array_as_list).encode()
    if not indent:
        data = data.replace(b",", b", ").replace(b":", b": ")
    spots = []
    for value in set(odd.tolist()):
        token, text = orjson.dumps(value), repr(value).encode()
        at = data.find(token)
        while at >= 0:  # an occurrence that is not a whole token lies in one number or string
            end = at + len(token)
            if data[at - 1:at] in b"[ " and data[end:end + 1] in b",]}\n":
                spots.append((at, end, text))
            at = data.find(token, end)
    parts, last = [], 0
    for at, end, text in sorted(spots):
        parts += data[last:at], text
        last = end
    return b"".join(parts + [data[last:]])
