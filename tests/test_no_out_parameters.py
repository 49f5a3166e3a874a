"""No library function mutates a parameter annotated list, dict or set: a
function returns what it computes, and an out-parameter that it fills in
place is a second, hidden result."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qmf"

CONTAINERS = {"list", "dict", "set"}
MUTATORS = {
    "append", "extend", "update", "add", "insert", "pop", "remove", "discard",
    "clear", "setdefault", "sort",
}


def _container(annotation) -> bool:
    """Whether an annotation is list, dict or set, bare or subscripted."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return isinstance(annotation, ast.Name) and annotation.id in CONTAINERS


def _mutated(node) -> str | None:
    """The name that node mutates in place: the target of an augmented
    assignment, the container of an assigned or deleted item, or the object
    of a mutating method call."""
    if isinstance(node, ast.AugAssign):
        target = node.target
        return target.id if isinstance(target, ast.Name) else _mutated_item(target)
    if isinstance(node, (ast.Assign, ast.Delete)):
        for target in node.targets:
            name = _mutated_item(target)
            if name:
                return name
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        obj = node.func.value
        if node.func.attr in MUTATORS and isinstance(obj, ast.Name):
            return obj.id
    return None


def _mutated_item(target) -> str | None:
    """The container name of an item target x[i], else None."""
    if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
        return target.value.id
    return None


def out_parameters(sources: dict[str, str]) -> list[str]:
    """The functions and methods of sources, a map of module name to source,
    that mutate a parameter annotated list, dict or set, as
    "module.function(parameter)"."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            containers = {a.arg for a in params if _container(a.annotation)}
            mutated = {_mutated(inner) for inner in ast.walk(node)}
            found += [f"{module}.{node.name}({name})" for name in sorted(containers & mutated)]
    return found


def test_out_parameters_detects_planted_cases():
    sources = {
        "a": (
            "def grow(xs: list, n):\n"
            "    xs += [n]\n"
            "def fill(out: dict[str, int], key):\n"
            "    out[key] = 1\n"
            "def drop(seen: set, key):\n"
            "    seen.discard(key)\n"
            "def wipe(rows: list[int]):\n"
            "    del rows[0]\n"
            "class C:\n"
            "    def bump(self, counts: dict, key):\n"
            "        counts[key] += 1\n"
            "def push(stack: list, x):\n"
            "    stack.append(x)\n"
            "def fresh(xs: list, n) -> list:\n"
            "    ys = list(xs)\n"
            "    ys.append(n)\n"
            "    return ys\n"
            "def rebind(xs: list, n: int):\n"
            "    n += 1\n"
            "    xs = xs + [n]\n"
            "    return xs\n"
            "def untyped(xs, n):\n"
            "    xs.append(n)\n"
        ),
    }
    assert sorted(out_parameters(sources)) == [
        "a.bump(counts)", "a.drop(seen)", "a.fill(out)", "a.grow(xs)", "a.push(stack)",
        "a.wipe(rows)",
    ]


def test_library_has_no_out_parameters():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    sources = {path.stem: path.read_text(encoding="utf-8") for path in files}
    assert out_parameters(sources) == []
