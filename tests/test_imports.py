"""No module of the package or of the tests imports a name it never uses.

A plain ast scan: an imported name counts as used when it is read
anywhere in the same file, or listed in that file's __all__ (the package
re-exports through phwell/__init__.py).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "phwell").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """(line, name) of every name an import binds that the source never reads."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "from .model import HALF_LINE, validate_system\n"
        "__all__ = ['validate_system']\n"
        "def f():\n"
        "    import re\n"
        "    return np.zeros(1), parse\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dumps"), (5, "HALF_LINE"), (8, "re")]
