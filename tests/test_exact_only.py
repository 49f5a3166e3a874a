"""The library is exact: no float or complex value appears in its source,
and of `math` it imports only the integer functions gcd and isqrt."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qmf"
INEXACT_NAMES = {"float", "inf", "nan"}
MATH_ALLOWED = {"gcd", "isqrt"}


def inexact(source: str) -> list[str]:
    """What in source is not exact, each as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in INEXACT_NAMES:
            found.append(f"{node.lineno}: name {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in INEXACT_NAMES:
            found.append(f"{node.lineno}: attribute {node.attr}")
        elif isinstance(node, ast.Import):
            found += [
                f"{node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name.split(".")[0] == "math"
            ]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"{node.lineno}: from math import {alias.name}"
                for alias in node.names
                if alias.name not in MATH_ALLOWED
            ]
    return found


def test_inexact_detects_floats():
    source = (
        "from math import gcd, inf, isqrt\n"
        "import math\n"
        "x = 0.5 + 2j\n"
        "y = float(x) < math.nan\n"
        "z = inf\n"
    )
    assert sorted(inexact(source)) == [
        "1: from math import inf",
        "2: import math",
        "3: literal 0.5",
        "3: literal 2j",
        "4: attribute nan",
        "4: name float",
        "5: name inf",
    ]
    exact = "from math import gcd, isqrt\nfrom fractions import Fraction\nx = Fraction(1, 2)\n"
    assert inexact(exact) == []


def test_library_is_exact():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    found = {path.name: inexact(path.read_text(encoding="utf-8")) for path in files}
    assert {name: bad for name, bad in found.items() if bad} == {}
