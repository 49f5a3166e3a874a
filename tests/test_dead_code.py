"""The library defines no private name that it never reads, and exports no
name that nothing reads."""

import ast
import re
import symtable
from pathlib import Path

from test_exports import BENCHMARK_READS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmf"


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
    assert len(files) >= 10
    sources = {path.stem: path.read_text(encoding="utf-8") for path in files}
    assert dead_private_names(sources) == []


def import_reads(tree) -> tuple[set, dict]:
    """The (module, name) pairs that tree's imports of the package read, from
    any scope, and the names it binds to package modules. An import is
    relative (from .mod import name, from . import mod) or absolute (from
    qmf.mod import name, from qmf import mod), as the package binds no name
    of its own."""
    reads, modules = set(), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            home = node.module
        elif node.module and node.module.split(".")[0] == "qmf":
            home = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            if home:
                reads.add((home, alias.name))
            else:
                modules[alias.asname or alias.name] = alias.name
    return reads, modules


def global_loads(table, outer=None):
    """(name, definition) for each module-level name that table's scopes
    load: definition is the top-level function or class the load sits in,
    or None at module level. A name that a function binds is its own local
    there, and not a read of the module's name."""
    for sym in table.get_symbols():
        if sym.is_referenced() and (outer is None or sym.is_global()):
            yield sym.get_name(), outer
    for child in table.get_children():
        yield from global_loads(child, outer or child.get_name())


def unread_public_names(sources: dict[str, str], readme: str, benchmark: dict) -> list[str]:
    """The names in the literal __all__ of each module of sources (module
    name to source) that nothing reads. A name is read when
    - a library module imports it from its module (import_reads), or reads
      it as mod.name off a module it imported;
    - its own module loads it outside its own definition, through the
      module's global scope (global_loads), so a local of the same name is
      no read of it;
    - it is a verifier that cli._THEOREMS names, which the cli reads from
      congr by getattr;
    - readme, the README's Library code block, imports it; or
    - benchmark, a map of module to names such as BENCHMARK_READS, lists it.
    """
    exported, read = [], {(m, n) for m, names in benchmark.items() for n in names}
    read |= import_reads(ast.parse(readme))[0]
    for module, source in sources.items():
        tree = ast.parse(source)
        imported, modules = import_reads(tree)
        read |= imported
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    read.add((modules[node.value.id], node.attr))
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                if node.targets[0].id == "__all__" and isinstance(node.value, ast.List):
                    exported += [(module, n) for n in ast.literal_eval(node.value)]
                if (module, node.targets[0].id) == ("cli", "_THEOREMS"):
                    verifiers = ast.literal_eval(node.value).values()
                    read |= {("congr", name) for name, _ in verifiers}
        table = symtable.symtable(source, module, "exec")
        read |= {(module, n) for n, outer in global_loads(table) if outer != n}
    return [f"{m}.{n}" for m, n in exported if (m, n) not in read]


def test_unread_public_names_detects_planted_names():
    sources = {
        "a": (
            '__all__ = ["shown", "kept", "sigma", "used", "orphan", "recursive"]\n'
            "def shown(): return 1\n"
            "def kept(): return 2\n"
            "def sigma(m, l): return l\n"
            "def used(): return 3\n"
            "def orphan(): return 4\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "class Box:\n"
            "    def size(self):\n"
            "        orphan = 1\n"
            "        return used() + orphan\n"
        ),
        "b": (
            '__all__ = ["imported", "attribute", "theorem", "bench", "stray"]\n'
            "def imported(): return 5\n"
            "def attribute(): return 6\n"
            "def theorem(): return 7\n"
            "def bench(): return 8\n"
            "def stray(): return 9\n"
        ),
        "c": (
            '__all__ = ["cube"]\n'
            "from .b import imported\n"
            "def cube(x):\n"
            "    from . import b\n"
            "    sigma = [x, x]\n"
            "    stray = 2\n"
            "    return b.attribute() + imported() + len(sigma) + stray\n"
        ),
        "cli": '_THEOREMS = {"t": ("theorem", ("k",))}\n',
        "congr": '__all__ = ["theorem"]\ndef theorem(): return 0\n',
    }
    readme = "from qmf.a import Box, shown\n"
    got = unread_public_names(sources, readme, {"b": ("bench",)})
    assert got == ["a.kept", "a.sigma", "a.orphan", "a.recursive", "b.theorem", "b.stray", "c.cube"]


def library_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def readme_library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    return block


def test_library_has_no_unread_public_names():
    sources = library_sources()
    assert len(sources) >= 10 and {"box", "cli", "__init__"} <= set(sources)
    assert unread_public_names(sources, readme_library_block(), BENCHMARK_READS) == []
