"""The library defines no private name that it never reads."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qmf"


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level names (functions, classes and assignments whose
    name starts with one underscore) that sources, a map of module name to
    source, define and no module reads: no Name node loads them, no
    Attribute node names them and no import imports them by name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [
                f"{module}.{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return [name for name in defined if name.rpartition(".")[2] not in read]


def test_dead_private_names_detects_planted_names():
    sources = {
        "a": (
            "from .b import _shared\n"
            "_LIMIT = 5\n"
            "_unused: int = 0\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "def _orphan():\n"
            "    return 1\n"
            "class _Dead:\n"
            "    pass\n"
            "def public(x):\n"
            "    return _helper(x) + _shared + b._method(x)\n"
        ),
        "b": "_shared = 1\ndef _method(x):\n    return x\n__all__ = []\n",
    }
    assert dead_private_names(sources) == ["a._unused", "a._orphan", "a._Dead"]


def test_library_has_no_dead_private_names():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    sources = {path.stem: path.read_text(encoding="utf-8") for path in files}
    assert dead_private_names(sources) == []
