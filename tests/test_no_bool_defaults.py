"""No library function takes a parameter with a bool default: a flag that
switches a function between two behaviours is two functions, or one."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qmf"


def bool_defaults(sources: dict[str, str]) -> list[str]:
    """The functions, methods and lambdas of sources, a map of module name
    to source, that give a parameter a default of True or False, as
    "module.function(parameter)"."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            name = getattr(node, "name", "<lambda>")
            found += [
                f"{module}.{name}({arg.arg})"
                for arg, default in pairs
                if isinstance(default, ast.Constant) and isinstance(default.value, bool)
            ]
    return found


def test_bool_defaults_detects_planted_flags():
    sources = {
        "a": (
            "def walk(N, quats=False, depth=0):\n"
            "    return N\n"
            "class C:\n"
            "    def run(self, x, *, fast=True, name=None):\n"
            "        return x\n"
            "f = lambda x, y=1, z=False: x\n"
            "def plain(x, y=None, z=2):\n"
            "    return x\n"
        ),
    }
    assert bool_defaults(sources) == ["a.walk(quats)", "a.run(fast)", "a.<lambda>(z)"]


def test_library_has_no_bool_defaults():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    sources = {path.stem: path.read_text(encoding="utf-8") for path in files}
    assert bool_defaults(sources) == []
