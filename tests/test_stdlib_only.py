"""The library imports nothing outside the standard library and qmf itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qmf"
ALLOWED = sys.stdlib_module_names | {"qmf"}


def outside_imports(source: str) -> list[str]:
    """Top-level names of absolute imports in source that are not allowed."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_outside_imports_detects_third_party():
    source = "import os, numpy.linalg\nfrom . import forms\nfrom sympy import S\n"
    assert outside_imports(source) == ["numpy.linalg", "sympy"]
    assert outside_imports("from __future__ import annotations\nimport qmf.cli\n") == []


def test_library_is_stdlib_only():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    found = {
        path.name: outside_imports(path.read_text(encoding="utf-8")) for path in files
    }
    assert {name: bad for name, bad in found.items() if bad} == {}
