"""Golden CLI digests: stdout of a fixed set of commands must stay byte-identical.

tests/golden_cli.json maps each command line to its exit code and the sha256
of its stdout. The digests were recorded before the named forms moved to
Maass tables, so these tests pin that refactors keep every printed byte.

Record the commands that have no digest yet:

    PYTHONPATH=src python tests/test_golden_cli.py --record

Recording never rewrites a digest that is already in the file. To re-record
a command (only when an output change is intended), delete its entry from
golden_cli.json first.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from qmf.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

FORMS = (
    "X10", "X12", "X14",
    "E4H", "E6H", "E10H", "E12H",
    "G4H", "G6H", "G10H", "G12H", "G14H", "G16H",
)
INDICES = (
    "0,0,0,0,0,0",  # rank 0
    "2,0,0,0,0,0",  # rank 1
    "0,3,0,0,0,0",
    "1,1,1,1,1,1",
    "2,2,2,2,2,2",
    "1,1,1,1,0,0",  # rank 2
    "1,1,0,0,0,0",
    "2,2,2,2,0,0",
    "2,3,1,1,1,1",
    "3,3,3,3,0,0",
    "3,3,0,0,0,0",
    "1,4,1,-1,0,0",
    "4,4,2,2,2,2",
)
MODULI = ("23", "691")


def _coeff_commands():
    for form in FORMS:
        for i, T in enumerate(INDICES):
            yield ["coeff", "--form", form, "--T", T]
            yield ["coeff", "--form", form, "--T", T, "--mod", MODULI[i % 2]]


def _table_commands():
    for form in ("X10", "X12", "X14", "G12H"):
        for depth in ("2", "3"):
            yield ["table", "--form", form, "--max", depth]
            yield ["table", "--form", form, "--max", depth, "--format", "json"]
    yield ["table", "--form", "G12H", "--max", "3", "--mod", "691"]
    yield ["table", "--form", "G12H", "--max", "3", "--format", "json", "--mod", "691"]
    yield ["table", "--form", "X10", "--max", "3", "--mod", "17"]
    yield ["table", "--form", "G10H", "--max", "4"]
    yield ["table", "--form", "G12H", "--max", "4", "--format", "json", "--mod", "691"]
    yield ["table", "--form", "X14", "--max", "4", "--format", "json"]
    yield ["table", "--form", "E10H", "--max", "4", "--format", "json", "--mod", "17"]
    yield ["table", "--form", "X12", "--max", "4", "--mod", "691"]
    yield ["table", "--form", "E12H", "--max", "4", "--mod", "31"]
    yield ["table", "--form", "G10H", "--max", "5"]
    yield ["table", "--form", "G12H", "--max", "5", "--format", "json", "--mod", "691"]
    yield ["table", "--form", "X14", "--max", "6", "--format", "json", "--mod", "23"]
    yield ["table", "--form", "X12", "--max", "6", "--mod", "691"]
    yield ["table", "--form", "E12H", "--max", "5", "--mod", "31"]
    yield ["table", "--form", "X14", "--max", "3", "--mod", "691"]
    yield ["table", "--form", "X14", "--max", "3", "--format", "json", "--mod", "691"]
    # the radius-0 ball, the single-radius ball and an odd depth past 6
    yield ["table", "--form", "G12H", "--max", "0"]
    yield ["table", "--form", "G12H", "--max", "0", "--format", "json"]
    yield ["table", "--form", "G12H", "--max", "1"]
    yield ["table", "--form", "G12H", "--max", "1", "--format", "json"]
    yield ["table", "--form", "X10", "--max", "7"]


def _verify_commands():
    yield ["verify", "theta", "--depth", "3"]
    yield ["verify", "mod23", "--depth", "3"]
    for p in ("5", "7", "11", "13"):
        yield ["verify", "ep1", "--p", p, "--depth", "3"]
    for k in ("6", "12", "14"):
        yield ["verify", "congeis", "--k", k, "--depth", "3"]
    yield ["verify", "ramanujan", "--k", "10", "--p", "17", "--depth", "3"]
    yield ["verify", "ramanujan", "--k", "14", "--p", "691", "--depth", "3"]
    yield ["verify", "ramanujan", "--k", "12", "--p", "31", "--depth", "2"]
    for k, p in (("16", "43"), ("16", "127"), ("18", "257"), ("18", "3617"),
                 ("20", "73"), ("20", "43867")):
        yield ["verify", "ramanujan", "--k", k, "--p", p, "--depth", "2"]
    # 3 and 4 monomials in E4 and E6: elimination sizes the pairs above miss
    yield ["verify", "ramanujan", "--k", "24", "--p", "89", "--depth", "2"]
    yield ["verify", "ramanujan", "--k", "28", "--p", "2731", "--depth", "2"]
    yield ["verify", "ramanujan", "--k", "36", "--p", "43691", "--depth", "3"]
    yield ["verify", "ramanujan", "--k", "24", "--p", "89", "--depth", "1"]
    yield ["verify", "ramanujan", "--k", "12", "--p", "31", "--depth", "0"]
    yield ["verify", "theta", "--depth", "5"]
    yield ["verify", "mod23", "--depth", "5"]
    yield ["verify", "ep1", "--p", "13", "--depth", "5"]
    yield ["verify", "congeis", "--k", "6", "--depth", "5"]
    yield ["verify", "ramanujan", "--k", "14", "--p", "691", "--depth", "4"]
    yield ["verify", "theta", "--depth", "12"]
    yield ["verify", "mod23", "--depth", "12"]
    yield ["verify", "ep1", "--p", "13", "--depth", "12"]
    yield ["verify", "congeis", "--k", "6", "--depth", "12"]
    yield ["verify", "ramanujan", "--k", "14", "--p", "691", "--depth", "8"]


KINDS = {
    "coeff": _coeff_commands,
    "table": _table_commands,
    "verify": _verify_commands,
}


def digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


def _check(kind):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[kind]
    commands = [" ".join(argv) for argv in KINDS[kind]()]
    assert commands == list(golden)
    changed = [cmd for cmd in commands if digest(cmd.split(" ")) != golden[cmd]]
    assert changed == []


def test_golden_coeff():
    _check("coeff")


def test_golden_table():
    _check("table")


def test_golden_verify():
    _check("verify")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    known = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    record = {}
    for kind, commands in KINDS.items():
        old = known.get(kind, {})
        record[kind] = {
            cmd: old[cmd] if cmd in old else digest(cmd.split(" "))
            for cmd in (" ".join(argv) for argv in commands())
        }
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
