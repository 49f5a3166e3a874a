"""The library applies no functools memo: an unbounded cache keeps one entry
per argument for the life of the process, so none may come back unnoticed.
form_table's table cache and the tangent numbers behind bernoulli (with the
last row of the triangle they are read from) are the library's memos."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qmf"
MEMOS = {"cache", "lru_cache"}


def functools_memos(source: str) -> list[str]:
    """Every import of functools.cache or lru_cache in source, and every
    functools.cache or functools.lru_cache it reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [alias.name for alias in node.names if alias.name in MEMOS]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in MEMOS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append(f"functools.{node.attr}")
    return found


def test_functools_memos_detects_each_spelling():
    source = (
        "import functools\n"
        "from functools import cache, reduce\n"
        "from functools import lru_cache as memo\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(n): return n\n"
        "g = functools.cache(f)\n"
    )
    want = ["cache", "functools.cache", "functools.lru_cache", "lru_cache"]
    assert sorted(functools_memos(source)) == want
    clean = "from functools import reduce\ncache = {}\ndef f(n): return cache.get(n)\n"
    assert functools_memos(clean) == []


def test_library_applies_no_functools_memo():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    found = {
        path.name: functools_memos(path.read_text(encoding="utf-8")) for path in files
    }
    assert {name: memos for name, memos in found.items() if memos} == {}
