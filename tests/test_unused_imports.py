"""The library imports no name that it never uses."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qmf"


def unused_imports(source: str) -> list[str]:
    """Names that imports in source bind and no expression reads; a name
    listed in the module's __all__ counts as read. An __all__ built by an
    expression, such as list(_NAMES), reads just the names in it."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, (ast.List, ast.Tuple))
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_unused_imports_detects_dead_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys as system\n"
        "from math import gcd, lcm\n"
        "from .tmat import TMatrix, parse_quat as pq\n"
        "__all__ = ['TMatrix']\n"
        "def f(x: int) -> int:\n"
        "    return gcd(x, os.sep)\n"
    )
    assert unused_imports(source) == ["system", "lcm", "pq"]
    derived = (
        "from .forms import MaassTable, form_table\n"
        "_NAMES = {'MaassTable': 'forms'}\n"
        "__all__ = list(_NAMES)\n"
    )
    assert unused_imports(derived) == ["MaassTable", "form_table"]


def test_library_has_no_unused_imports():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8")) for path in files
    }
    assert {name: dead for name, dead in found.items() if dead} == {}
