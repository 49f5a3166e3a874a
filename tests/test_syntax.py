"""Every library and test file parses with the grammar of the oldest Python
that pyproject.toml's requires-python admits."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def oldest_python() -> tuple[int, int]:
    """(major, minor) of the requires-python = ">=X.Y" line of pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def parses(source: str, version: tuple[int, int]) -> bool:
    """True when source parses with the grammar of that Python version."""
    try:
        ast.parse(source, feature_version=version)
    except SyntaxError:
        return False
    return True


def test_parses_detects_newer_syntax():
    match = "match x:\n    case 1:\n        pass\n"
    assert parses(match, (3, 10)) and not parses(match, (3, 9))
    assert not parses("try:\n    pass\nexcept* ValueError:\n    pass\n", (3, 10))


def test_sources_parse_as_oldest_python():
    version = oldest_python()
    assert version == (3, 10)
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) >= 20
    bad = [
        str(path.relative_to(ROOT))
        for path in files
        if not parses(path.read_text(encoding="utf-8"), version)
    ]
    assert bad == []
