"""The engine needs only what ``pyproject.toml`` declares: the third-party
top-level imports of ``src/pose3dtrack`` are exactly the names in
``[project].dependencies``, and importing the package and its CLI loads no
``scipy``, which the engine no longer needs."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pose3dtrack

PACKAGE = Path(pose3dtrack.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"pose3dtrack"}
    dependencies = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in dependencies}
    assert third_party == declared


def test_importing_the_package_and_its_cli_loads_no_scipy():
    code = ("import sys, pose3dtrack, pose3dtrack.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                       os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "[]\n"
