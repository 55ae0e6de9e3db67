"""Locate the engine source of the checkout the benchmark runs in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path.

    Exits with code 2 when the checkout holds no engine source, so the
    benchmark never measures an installed copy instead.
    """
    if not (SRC / "pose3dtrack" / "__init__.py").is_file():
        sys.stderr.write(f"error: no engine source at {SRC / 'pose3dtrack'}\n")
        raise SystemExit(2)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
