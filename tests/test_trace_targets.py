"""The benchmark's per-layer trace (``perfbench/spans.py``) patches engine
functions where their callers look them up.  Every such name must still
resolve, so that deleting or renaming one fails here, not only in a later
traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    """Import spans.py from its path without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


_spans = _load_spans()
TARGETS = _spans.TRACK_TARGETS + _spans.SETUP_TARGETS


@pytest.mark.parametrize("name, owner, attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for _, owner, attr in TARGETS])
def test_trace_target_resolves(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name}) is gone"
