"""End-to-end CLI tests driving qmf.cli.main in process."""

import argparse
import collections
import csv
import hashlib
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from box_oracle import RING_MEMBERS, tau_star, whole_box
from qmf import box, cli, congr, fexp, forms, tmat
from qmf.cli import main
from qmf.forms import build_form, form_table
from test_congr import perturb, refuse_walks
from test_golden_cli import GOLDEN, digest
from test_readme import README

T0 = "1,1,1,1,0,0"
I2 = "1,1,0,0,0,0"
GOLDEN_TABLES = json.loads(GOLDEN.read_text(encoding="utf-8"))["table"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_eisenstein_identity_matrix(capsys):
    code, out, err = run(capsys, ["coeff", "--form", "G10H", "--T", I2])
    assert code == 0
    assert out == "129\n"


def test_coeff_cusp_mod(capsys):
    code, out, err = run(
        capsys,
        ["coeff", "--form", "X14", "--T", "1,3,1,1,0,0", "--mod", "23"],
    )
    assert code == 0
    assert out == "4830 ≡ 0 (mod 23)\n"


def test_coeff_cusp_vanishes_at_zero(capsys):
    code, out, err = run(capsys, ["coeff", "--form", "X10", "--T", "0,0,0,0,0,0"])
    assert code == 0
    assert out == "0\n"


def test_coeff_auto_deepens_past_depth(capsys):
    # m = 4 lies outside the default depth-3 box, which coeff never builds
    code, out, err = run(capsys, ["coeff", "--form", "E4H", "--T", "1,4,0,0,0,0"])
    assert code == 0
    assert out == "5760\n"  # 1920 * (sigma_1(8) - 4 sigma_1(2)) at two_det 8


COEFF_FORMS = ("X10", "X12", "X14", "E4H", "E6H", "G10H", "G12H", "G16H")


@pytest.mark.parametrize("name", COEFF_FORMS)
def test_coeff_matches_lifted_box(capsys, name):
    box = build_form(name, 3)
    capsys.readouterr()
    for T in whole_box(3):
        cli._cmd_coeff({"form": name, "T": str(T), "mod": None})
    out = capsys.readouterr().out
    assert out == "".join(f"{box.coeff(T)}\n" for T in whole_box(3))


def test_coeff_deep_index_builds_no_box(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("coeff must not build or walk a box")

    refuse_walks(monkeypatch, refuse, (cli, fexp, forms))
    # expansions are read-only: the library has no product to call
    assert [m for m in RING_MEMBERS if hasattr(fexp.FourierExpansion, m)] == []
    # content 2, two_det 124
    expected = tau_star(124) + 2**13 * tau_star(31)
    code, out, err = run(capsys, ["coeff", "--form", "X14", "--T", "8,8,2,2,0,0"])
    assert (code, out) == (0, f"{expected}\n")
    for name in COEFF_FORMS:
        code, out, err = run(capsys, ["coeff", "--form", name, "--T", "8,8,2,2,0,0"])
        assert code == 0 and err == ""


NOT_PSD = ("0,-1,0,0,0,0", "1,0,1,1,0,0", "-40,-40,0,0,0,0")


def test_coeff_not_psd_warns_and_prints_zero(capsys):
    code, out, err = run(capsys, ["coeff", "--form", "X10", "--T", "1,1,2,2,0,0"])
    assert code == 0
    assert out == "0\n"
    assert "not positive semidefinite" in err
    # -40,-40 has two_det 3200: no table is built that far for a 0
    for form in ("X12", "G12H"):
        for T in NOT_PSD:
            argv = ["coeff", "--form", form, f"--T={T}", "--mod", "4"]
            code, out, err = run(capsys, argv)
            assert (code, out) == (0, "0 ≡ 0 (mod 4)\n")
            assert err == f"warning: {T} is not positive semidefinite; coefficient is 0\n"


def test_coeff_index_with_leading_minus_parses_spaced_or_joined(capsys):
    # "--T -1,..." starts with "-": a flag reads the next token as its value
    # whatever that starts with
    for T in ("-1,-1,0,0,0,0", "-40,-40,0,0,0,0", "1,1,1,1,0,0"):
        spaced = run(capsys, ["coeff", "--form", "X12", "--T", T])
        joined = run(capsys, ["coeff", "--form", "X12", f"--T={T}"])
        assert spaced == joined
        assert spaced[0] == 0
    warning = "warning: -1,-1,0,0,0,0 is not positive semidefinite; coefficient is 0\n"
    assert run(capsys, ["coeff", "--form", "X12", "--T", "-1,-1,0,0,0,0"]) == (
        0, "0\n", warning)
    # a --T with no value is still a usage error
    code, out, err = run(capsys, ["coeff", "--form", "X12", "--T"])
    assert code == 2 and out == "" and "expected one argument" in err


def test_coeff_parse_error_exit2(capsys):
    # odd coordinate sum is outside the dual lattice
    code, out, err = run(capsys, ["coeff", "--form", "X10", "--T", "1,1,1,0,0,0"])
    assert code == 2
    assert "error:" in err


def test_coeff_unknown_form_exit2(capsys):
    code, out, err = run(capsys, ["coeff", "--form", "X11", "--T", T0])
    assert code == 2
    assert "error:" in err
    # the form is resolved before T is read, so the psd error is the error
    for form in ("NOPE", "X11", "G2H", "E3H"):
        want = run(capsys, ["coeff", "--form", form, "--T", T0])
        assert want[0] == 2 and want[1] == "" and want[2].startswith("error: ")
        for T in NOT_PSD:
            for mod in ([], ["--mod", "4"]):
                assert run(capsys, ["coeff", "--form", form, f"--T={T}", *mod]) == want


def test_coeff_nonintegral_mod_exit1(capsys):
    code, out, err = run(
        capsys,
        ["coeff", "--form", "E10H", "--T", "1,1,-1,-1,0,0", "--mod", "17"],
    )
    assert code == 1
    assert "not integral mod 17" in err


def test_verify_ramanujan_holds(capsys):
    code, out, err = run(
        capsys,
        ["verify", "ramanujan", "--k", "14", "--p", "691", "--depth", "2"],
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "holds"
    assert verdict["params"] == {"k": 14, "p": 691, "depth": 2, "target": "X14"}
    assert verdict["witnesses"] == []
    assert verdict["checked"] > 0


def test_verify_ramanujan_missing_args_exit2(capsys):
    code, out, err = run(capsys, ["verify", "ramanujan", "--k", "14"])
    assert code == 2
    assert "needs --k and --p" in err


def test_verify_ramanujan_depth_check(capsys):
    # weight 12 needs depth 1 for its two monomials; weight 10 has one
    argv = ["verify", "ramanujan", "--k", "12", "--p", "31", "--depth", "0"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "needs depth >= 1" in err and "got depth 0" in err
    argv = ["verify", "ramanujan", "--k", "10", "--p", "17", "--depth", "0"]
    code, out, err = run(capsys, argv)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "holds" and verdict["checked"] == 3


def test_verify_congeis_composite_exit2(capsys):
    code, out, err = run(capsys, ["verify", "congeis", "--k", "16"])
    assert code == 2
    assert "27 is composite" in err


def test_verify_congeis_missing_k_exit2(capsys):
    code, out, err = run(capsys, ["verify", "congeis"])
    assert code == 2


def test_verify_theta_emits_list(capsys):
    code, out, err = run(capsys, ["verify", "theta", "--depth", "2"])
    assert code == 0
    verdicts = json.loads(out)
    assert isinstance(verdicts, list) and len(verdicts) == 2
    assert all(v["status"] == "holds" for v in verdicts)


def test_verify_mod23_holds(capsys):
    code, out, err = run(capsys, ["verify", "mod23", "--depth", "2"])
    assert code == 0
    assert json.loads(out)["status"] == "holds"


def test_verify_ep1_holds(capsys):
    code, out, err = run(capsys, ["verify", "ep1", "--p", "5", "--depth", "2"])
    assert code == 0
    assert json.loads(out)["status"] == "holds"


def test_verify_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "verdict.json"
    code, out, err = run(
        capsys,
        ["verify", "ep1", "--p", "5", "--depth", "2", "--out", str(path)],
    )
    assert code == 0
    assert out == ""
    code2, out2, err2 = run(capsys, ["verify", "ep1", "--p", "5", "--depth", "2"])
    assert path.read_text(encoding="utf-8") == out2


def _rows_from_csv(text):
    return {row["T"]: row for row in csv.DictReader(io.StringIO(text))}


def test_table_cusp_rows(capsys):
    code, out, err = run(capsys, ["table", "--form", "X10", "--max", "2"])
    assert code == 0
    rows = _rows_from_csv(out)
    assert rows["1,1,1,1,0,0"]["num"] == "1"
    assert rows["1,1,0,0,0,0"]["num"] == "-24"
    assert rows["1,2,1,1,0,0"]["num"] == "12"
    assert all(row["den"] == "1" for row in rows.values())
    # cusp form: no support at singular indices
    assert rows["0,0,0,0,0,0"]["num"] == "0"
    assert rows["0,1,0,0,0,0"]["num"] == "0"


def test_table_mod_column(capsys):
    code, out, err = run(
        capsys, ["table", "--form", "X14", "--max", "2", "--mod", "23"]
    )
    assert code == 0
    rows = _rows_from_csv(out)
    assert rows["1,1,1,1,0,0"]["residue"] == "1"
    assert rows["1,1,0,0,0,0"]["residue"] == str(-24 % 23)


def test_table_json_format(capsys):
    code, out, err = run(
        capsys, ["table", "--form", "X10", "--max", "1", "--format", "json"]
    )
    assert code == 0
    entries = json.loads(out)
    by_T = {e["T"]: e for e in entries}
    assert by_T["1,1,1,1,0,0"]["coeff"] == {"num": "1", "den": "1"}
    assert len(entries) == 52


def test_table_depth_zero_single_constant_row(capsys):
    code, out, err = run(capsys, ["table", "--form", "X10", "--max", "0"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["T"] == "0,0,0,0,0,0"
    assert rows[0]["num"] == "0"


def test_table_exact_rational_constant(capsys):
    code, out, err = run(capsys, ["table", "--form", "G4H", "--max", "0"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["num"] == "1" and rows[0]["den"] == "1920"


def test_table_nonintegral_mod_exit1(capsys):
    code, out, err = run(
        capsys, ["table", "--form", "G4H", "--max", "0", "--mod", "2"]
    )
    assert code == 1
    assert "not integral mod 2" in err


@pytest.mark.parametrize("form, mod", [("G4H", "2"), ("E10H", "17")])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_failed_mod_writes_nothing(capsys, tmp_path, form, mod, fmt):
    # G4H fails on its first row (1/1920); E10H only at the first index
    # with a 17 in its denominator, after earlier rows have been rendered
    argv = ["table", "--form", form, "--max", "1", "--mod", mod, "--format", fmt]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert f"not integral mod {mod}" in err
    path = tmp_path / "rows.out"
    code, out, err = run(capsys, argv + ["--out", str(path)])
    assert (code, out) == (1, "")
    assert not path.exists()


@pytest.mark.parametrize("form, mod", [("E10H", 17), ("E12H", 31), ("E16H", 43)])
def test_table_failed_mod_names_first_index(capsys, form, mod):
    # rows are rendered once per distinct coefficient; the error still names
    # the first index in box order whose coefficient is not integral mod M
    table = form_table(form, 8)
    first = next(
        T for T in whole_box(2) if table.coeff(T).denominator % mod == 0
    )
    for fmt in ("csv", "json"):
        argv = ["table", "--form", form, "--max", "2", "--mod", str(mod)]
        code, out, err = run(capsys, argv + ["--format", fmt])
        assert (code, out) == (1, "")
        assert f"error: coefficient at {first} is not integral mod {mod}" in err


def count_parses(monkeypatch, module):
    """Record the text of every index matrix module parses, in a list."""
    texts, parse = [], tmat.parse_tmatrix

    def counted(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(module, "parse_tmatrix", counted)
    return texts


def test_table_failed_mod_parses_no_index(capsys, monkeypatch):
    # the error names the first failing index by the text of the walk
    parsed = count_parses(monkeypatch, tmat)
    code, out, err = run(capsys, ["table", "--form", "E10H", "--max", "2", "--mod", "17"])
    assert (code, out) == (1, "")
    assert "error: coefficient at 1,1,-1,-1,0,0 is not integral mod 17" in err
    assert parsed == []


def test_table_builds_no_expansion(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("table must read the form's table, not a lifted box")

    monkeypatch.setattr(fexp.FourierExpansion, "__init__", refuse)
    for fmt in ("csv", "json"):
        code, out, err = run(
            capsys, ["table", "--form", "X12", "--max", "2", "--format", fmt]
        )
        assert code == 0 and out


def test_table_builds_no_index_matrix_per_row(capsys, monkeypatch):
    # each row is joined from its block's prefix, the ball vector's text and
    # a lookup of its class: no index matrix is keyed or printed, and every
    # byte is still the golden one
    def refuse(self):
        raise AssertionError("table must not key or print an index matrix per row")

    monkeypatch.setattr(tmat.TMatrix, "class_key", refuse)
    monkeypatch.setattr(tmat.TMatrix, "__str__", refuse)
    for fmt in ([], ["--format", "json"]):
        for mod in ([], ["--mod", "691"]):
            argv = ["table", "--form", "X14", "--max", "3", *fmt, *mod]
            assert digest(argv) == GOLDEN_TABLES[" ".join(argv)]
            assert GOLDEN_TABLES[" ".join(argv)]["exit"] == 0
    # a failing --mod names its first index from the same walk
    code, out, err = run(capsys, ["table", "--form", "E12H", "--max", "3", "--mod", "31"])
    assert (code, out) == (1, "")
    assert "error: coefficient at 1,1,-1,-1,0,0 is not integral mod 31" in err


@pytest.mark.parametrize("name", ("X10", "X12", "X14", "G12H", "E10H"))
@pytest.mark.parametrize("mod", (None, 691))
def test_table_matches_lifted_box(capsys, name, mod):
    # every row, in box order, against the lift of the form on the box
    box = build_form(name, 3)
    residues = {}

    def residue(c):
        # the r in 0..mod-1 with mod dividing the numerator of c - r
        if c not in residues:
            residues[c] = next(r for r in range(mod) if (c - r).numerator % mod == 0)
        return str(residues[c])

    expected = []
    for T in whole_box(3):
        c = box.coeff(T)
        row = {"T": str(T), "num": str(c.numerator), "den": str(c.denominator)}
        if mod is not None:
            row["residue"] = residue(c)
        expected.append(row)
    argv = ["table", "--form", name, "--max", "3"]
    if mod is not None:
        argv += ["--mod", str(mod)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out))) == expected
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    entries = json.loads(out)
    for row in expected:
        row["coeff"] = {"num": row.pop("num"), "den": row.pop("den")}
    assert entries == expected


def test_table_and_build_form_keep_no_box(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("table and build_form must not list the box")

    monkeypatch.setattr(tmat, "enumerate_psd", refuse)
    for fmt in ("csv", "json"):
        for extra in ([], ["--mod", "691"]):
            argv = ["table", "--form", "X12", "--max", "3", "--format", fmt]
            assert run(capsys, argv + extra)[0] == 0
        argv = ["table", "--form", "E10H", "--max", "2", "--mod", "17"]
        assert run(capsys, argv + ["--format", fmt])[0] == 1
    assert build_form("X10", 3).coeff(tmat.parse_tmatrix("1,1,1,1,0,0")) == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_streams_rows(capsys, fmt):
    # the output and the box are never held: the walk's peak stays far
    # below the 35,929 rows of depth 4; the form's table is built first
    form_table("X14", 32)
    tracemalloc.start()
    try:
        code = main(["table", "--form", "X14", "--max", "4", "--format", fmt,
                     "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_depth_6_peak(fmt):
    # the lines of every sub-ball, their shapes and one run per shape and
    # radius are what the walk keeps: at depth 6 (329,905 rows over a ball
    # of 51,265 vectors) the peak stays under 6 MB; the form's table is
    # built first
    form_table("X14", 72)
    tracemalloc.start()
    try:
        code = main(["table", "--form", "X14", "--max", "6", "--format", fmt,
                     "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 6 * 2**20


def test_table_depth_8_peak():
    # the lines of the 31 sub-balls, their shapes and one run per shape and
    # radius are what the walk keeps: at depth 8 (1,650,105 rows over a ball
    # of 17,077 lines) the peak stays under 12 MB; the form's table is built
    # first
    form_table("X14", 128)
    tracemalloc.start()
    try:
        code = main(["table", "--form", "X14", "--max", "8", "--format", "json",
                     "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 12 * 2**20


def test_table_byte_stable(capsys):
    _, out1, _ = run(capsys, ["table", "--form", "X12", "--max", "2"])
    _, out2, _ = run(capsys, ["table", "--form", "X12", "--max", "2"])
    assert out1 == out2


def test_table_out_file(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, out, err = run(
        capsys, ["table", "--form", "X10", "--max", "1", "--out", str(path)]
    )
    assert code == 0
    assert out == ""
    _, direct, _ = run(capsys, ["table", "--form", "X10", "--max", "1"])
    assert path.read_text(encoding="utf-8") == direct


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    # QMF_CACHE from older releases is ignored: nothing is read or written
    cache = tmp_path / "envcache"
    monkeypatch.setenv("QMF_CACHE", str(cache))
    code, out, _ = run(capsys, ["coeff", "--form", "X12", "--T", I2])
    assert (code, out) == (0, "48\n")
    run(capsys, ["table", "--form", "X10", "--max", "1"])
    assert not cache.exists()
    assert main(["table", "--form", "X10", "--max", "1", "--cache", str(cache)]) == 2


def test_deep_box_warning(capsys, monkeypatch, tmp_path):
    # a verifier builds no box, so it warns about none: 2k-5 = 27 fails the
    # precondition, and theta holds, at depth 5 alike
    code, out, err = run(capsys, ["verify", "congeis", "--k", "16", "--depth", "5"])
    assert (code, err) == (2, "error: 2k-5 = 27 is composite, theorem does not apply\n")
    code, out, err = run(capsys, ["verify", "theta", "--depth", "5"])
    assert (code, err) == (0, "")
    # table writes the box, and warns from the class counts it reads anyway,
    # counted once; table reads class_counts from box when it runs
    calls, class_counts = [], box.class_counts

    def counted(N):
        calls.append(N)
        return class_counts(N)

    monkeypatch.setattr(box, "class_counts", counted)
    out_file = tmp_path / "x10.csv"
    argv = ["table", "--form", "X10", "--max", "5", "--out", str(out_file)]
    code, out, err = run(capsys, argv)
    assert code == 0 and calls == [5]
    assert [line for line in err.splitlines() if line.startswith("warning")] == [
        "warning: depth 5 enumerates 121188 index matrices per form; "
        "expect long runtimes and large output"
    ]
    argv = ["table", "--form", "X10", "--max", "4", "--out", str(out_file)]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("theorem", cli._THEOREMS)
def test_verify_dispatch_names_a_verifier_and_its_flags(theorem):
    # each theorem names its congr function, whose parameters are the
    # theorem's flags and then N; the table holds names, not callables
    entry = cli._THEOREMS[theorem]
    name, flags = entry
    assert not any(callable(x) for x in entry)
    assert [*inspect.signature(getattr(congr, name)).parameters] == [*flags, "N"]


def test_no_command_exit2(capsys):
    assert main([]) == 2


def test_bad_theorem_name_exit2(capsys):
    assert main(["verify", "nosuch"]) == 2


def test_flags_are_spelled_in_full(capsys):
    # a prefix of a flag, which argparse took for the flag, names no flag;
    # nor does "--", which argparse read as the end of the flags
    code, out, err = run(capsys, ["coeff", "--fo", "X10", "--T", T0])
    assert (code, out) == (2, "")
    assert err.endswith("\nqmf coeff: error: the following arguments are required: --form\n")
    code, out, err = run(capsys, ["verify", "--", "theta", "--depth", "1"])
    assert (code, out) == (2, "")
    assert err.endswith("\nqmf: error: unrecognized arguments: --\n")


def oracle_parser():
    """The argparse parser qmf read its arguments with before its own loop,
    with allow_abbrev=False, as flags are now spelled in full: the
    reference for cli._parse. Returned with its subcommands' parsers."""
    forms_help = "X10, X12, X14, E<k>H or G<k>H"
    parser = argparse.ArgumentParser(
        prog="qmf",
        description=(
            "Exact Fourier coefficients and congruences of degree-2 "
            "quaternionic modular forms over the Hurwitz order"
        ),
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", help="print one Fourier coefficient", allow_abbrev=False)
    p_coeff.add_argument("--form", required=True, help=forms_help)
    p_coeff.add_argument("--T", required=True, help="index matrix as n,m,a,b,c,d")
    p_coeff.add_argument("--mod", type=int, metavar="M", help="also reduce mod M")
    p_coeff.set_defaults(func=cli._cmd_coeff)

    p_verify = sub.add_parser("verify", help="verify a congruence theorem", allow_abbrev=False)
    p_verify.add_argument("theorem", choices=list(cli._THEOREMS), help="which theorem sweep to run")
    p_verify.add_argument("--k", type=int, help="weight parameter")
    p_verify.add_argument("--p", type=int, help="prime modulus parameter")
    p_verify.add_argument(
        "--depth", type=int, default=cli.DEFAULT_DEPTH, help="truncation depth (default %(default)s)"
    )
    p_verify.add_argument("--out", metavar="FILE", help="write the JSON verdict here")
    p_verify.set_defaults(func=cli._cmd_verify)

    p_table = sub.add_parser("table", help="dump box coefficients of a form", allow_abbrev=False)
    p_table.add_argument("--form", required=True, help=forms_help)
    p_table.add_argument("--max", type=int, required=True, help="box depth to enumerate")
    p_table.add_argument("--mod", type=int, metavar="M", help="add a residue column")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv", help="output format")
    p_table.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p_table.set_defaults(func=cli._cmd_table)
    return parser, sub.choices


# The flags of each subcommand, and values for each: a valid one first, then
# others, valid or not: ones that start with "-", are empty, are no integer
# or are no choice.
ORACLE_FLAGS = {
    "coeff": {
        "--form": ("X10", "G12H", "NOPE", ""),
        "--T": ("1,1,1,1,0,0", "-1,-1,0,0,0,0", "x"),
        "--mod": ("23", "-5", "x", "1.5", ""),
    },
    "verify": {
        "--k": ("14", "-2", "k"),
        "--p": ("691", "7", "0x10", ""),
        "--depth": ("3", "-1", " 4", "deep"),
        "--out": ("v.json", "-"),
    },
    "table": {
        "--form": ("X14", "E10H"),
        "--max": ("2", "-1", "2.0"),
        "--mod": ("691", "m"),
        "--format": ("csv", "json", "xml", "CSV"),
        "--out": ("rows.csv",),
    },
}
# Stray tokens: prefixes of a flag (argparse's abbreviations), unknown
# flags, a word and a flag with no value; and values that start with "-".
STRAY = ("--fo", "--ma", "--de", "--bogus", "--bogus=1", "-x", "extra", "--form", "-h", "--T")
VALUE_LIKE = ("--mod", "-h", "--help", "--bogus", "-1", "-x")


def random_argv(rng):
    """One argv: a command (or none, or a wrong one) and its arguments in any
    order, spelled "--x v" or "--x=v", some repeated, some missing, some
    with a value that starts with "-", and stray tokens, -h and a flag with
    no value among them."""
    roll = rng.random()
    if roll < 0.03:
        return rng.choice([[], ["-h"], ["--help"], ["nosuch", "--form", "X10"], ["--bogus"]])
    command = rng.choice(list(ORACLE_FLAGS))
    lead = [command] if roll > 0.06 else [rng.choice(["--bogus", "-x"]), command]
    groups = []
    if command == "verify" and rng.random() < 0.85:
        groups.append([rng.choice([*cli._THEOREMS, *cli._THEOREMS, "nosuch", "Theta"])])
    for flag, values in ORACLE_FLAGS[command].items():
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            roll = rng.random()
            value = values[0] if roll < 0.6 else rng.choice(values if roll < 0.9 else VALUE_LIKE)
            if rng.random() < 0.5:
                groups.append([flag, value])
            else:
                groups.append([f"{flag}={value}"])
    if rng.random() < 0.15:
        groups.append([rng.choice(STRAY)])
    if rng.random() < 0.03:
        groups.append([rng.choice(["-h", "--help"])])
    rng.shuffle(groups)
    if rng.random() < 0.1:
        groups.append([rng.choice(list(ORACLE_FLAGS[command]))])
    return lead + [token for group in groups for token in group]


def oracle_argv(argv):
    """argv respelled so that the reference parser reads it as the CLI
    does: a flag of the command and the token after it are joined as
    "--flag=value", since the CLI reads that token as the value whatever it
    starts with (the CLI before read only --T so, by the same join)."""
    joined, flags = [], None
    for arg in argv:
        if flags and joined[-1] in flags:
            joined[-1] += "=" + arg
            continue
        joined.append(arg)
        if flags is None and arg[:1] != "-":
            flags = ORACLE_FLAGS.get(arg, {})
    return joined


USAGE_ERRORS = (
    "expected one argument",
    "invalid int value",
    "invalid choice",
    "arguments are required",
    "unrecognized arguments",
)


def outcome(capsys, parse, argv):
    """(exit code, stdout, stderr, result) of parse(argv): the result is
    (function, values) when it accepts argv, and None when it exits."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err, None
    captured = capsys.readouterr()
    return 0, captured.out, captured.err, result


def test_parser_agrees_with_argparse(capsys, monkeypatch):
    # 2,000 seeded argv lists: both parsers accept each with the same
    # function and the same value of every argument, or both print the same
    # help and exit 0, or both exit 2 with the same usage line and error, in
    # the wording of the running interpreter's argparse
    monkeypatch.setenv("COLUMNS", "80")
    parser, _ = oracle_parser()

    def reference(argv):
        values = vars(parser.parse_args(oracle_argv(argv)))
        del values["command"]
        return values.pop("func"), values

    rng = random.Random(20221)
    seen = collections.Counter()
    for _ in range(2000):
        argv = random_argv(rng)
        want = outcome(capsys, reference, argv)
        assert outcome(capsys, cli._parse, argv) == want, argv
        code, out, err, result = want
        if code == 2:
            assert err.startswith("usage: qmf") and err.count("\nqmf") == 1
            seen[next(kind for kind in USAGE_ERRORS if kind in err)] += 1
        else:
            seen["help" if result is None else "accepted"] += 1
    # each outcome occurs, usage errors of every kind among them
    assert set(seen) == {"accepted", "help", *USAGE_ERRORS}
    assert min(seen.values()) >= 50 and seen["accepted"] > 400


@pytest.mark.parametrize("command", [None, *ORACLE_FLAGS])
def test_help_is_argparse_help_at_80_columns(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    parser, commands = oracle_parser()
    if command is not None:
        parser = commands[command]
    argv = [command, "-h"] if command else ["-h"]
    assert run(capsys, argv) == (0, parser.format_help(), "")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "theta", "--depth", "-1"], "--depth"),
        (["verify", "mod23", "--depth", "-1"], "--depth"),
        (["verify", "ep1", "--p", "5", "--depth", "-1"], "--depth"),
        (["verify", "congeis", "--k", "6", "--depth", "-2"], "--depth"),
        (["verify", "ramanujan", "--k", "10", "--p", "17", "--depth", "-1"], "--depth"),
        (["table", "--form", "X10", "--max", "-1"], "--max"),
    ],
)
def test_negative_depth_names_flag_exit2(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be >= 0, got {argv[-1]}\n"


# Sizes no list can hold, each refused before anything is allocated: table
# rows to two_det 2*10^20 (coeff) and 2*10^22 (table, verify) are past a
# list's index range, and the 2*10^18 + 1 entries of an eta row are past
# the most a list can address. A size below about 1.2*10^18 entries could
# be allocated, so none is tried.
OVERSIZED = [
    (["coeff", "--form", "G12H", "--T", "10000000000,10000000000,0,0,0,0"], "OverflowError"),
    (["table", "--form", "X10", "--max", "100000000000"], "OverflowError"),
    (["coeff", "--form", "X10", "--T", "1000000000,1000000000,0,0,0,0"], "MemoryError"),
    (["verify", "theta", "--depth", "100000000000"], "OverflowError"),
]


@pytest.mark.parametrize("argv, name", OVERSIZED, ids=("coeff-G12H", "table-X10", "coeff-X10", "verify-theta"))
def test_oversized_size_exit2(capsys, argv, name):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name}") and err.count("\n") == 1


def test_coeff_factors_a_content_past_trial_division(capsys):
    # a rank-1 index reads R(0) times sigma_3 of its content, here
    # n = 1000003 * 1000033, past trial division: Pollard rho splits it, and
    # the coefficient is 240 (1 + 1000003^3) (1 + 1000033^3)
    code, out, err = run(capsys, ["coeff", "--form", "E4H", "--T", "1000036000099,0,0,0,0,0"])
    assert (code, out, err) == (0, "240025921004416330179461774832721503360\n", "")


def cli_env(**extra):
    """The environment for running the CLI from this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_table_into_closed_pipe_exits_0_silently():
    # the reader stops after two lines, as `qmf table ... | head -2` does,
    # or after several chunks of the output: its 35,929 rows are each at
    # least as long as '"0,0,0,0,0,0",0,1\n'. stdout is unbuffered, so the
    # chunk writes themselves meet the closed pipe
    assert sum(box.class_counts(4).values()) * 18 > 8 * box._CHUNK_CHARS
    for size in (0, 3 * box._CHUNK_CHARS):
        proc = subprocess.Popen(
            [sys.executable, "-m", "qmf.cli", "table", "--form", "X10", "--max", "4"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=cli_env(PYTHONUNBUFFERED="1"),
        )
        head = [proc.stdout.readline() for _ in range(2)]
        while sum(map(len, head)) < size and head[-1]:
            head.append(proc.stdout.readline())
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert err == b""
        assert head[:2] == [b"T,num,den\n", b'"0,0,0,0,0,0",0,1\n']
        assert sum(map(len, head)) >= size and all(row.endswith(b"\n") for row in head)


class WriteLog:
    """A stdout that keeps the text of each write call, and nothing else."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


# A row of a table: its T text, then the rest of the row. A JSON row after
# the first is led by the separator ",\n".
TABLE_ROW = {
    "csv": re.compile(r'"([^"]*)",[^\n]*\n'),
    "json": re.compile(r'(?:,\n)?  \{\n    "T": "([^"]*)".*?\n  \}', re.DOTALL),
}


def check_chunks(writes, fmt, N):
    """Check that writes, a depth-N table, are its head, its tail and
    between them chunks of whole lines of the walk (the rows of one n, m,
    a, b, c), each of at most _CHUNK_CHARS characters, and no more chunks
    than the row limit allows; return the number of rows.

    A chunk holds at most _CHUNK_CHARS // width rows, width the widest row
    the table can have: at most the widest row written and the texts of a,
    b, c and d (|x| <= 2N). A chunk short of that limit is a block's last,
    or is short by less than a line, 2N + 1 rows at most. So the writes are
    a head, a tail and, in each of the (N + 1)^2 (n, m) blocks, at most one
    partial chunk more than the full ones."""
    row = TABLE_ROW[fmt]
    _, *chunks, _ = writes
    rows, widest, last = 0, 0, None
    for chunk in chunks:
        assert 0 < len(chunk) <= box._CHUNK_CHARS
        found = list(row.finditer(chunk))
        assert "".join(m.group(0) for m in found) == chunk
        # a line goes whole into one chunk
        assert found[0].group(1).rsplit(",", 1)[0] != last
        last = found[-1].group(1).rsplit(",", 1)[0]
        rows += len(found)
        widest = max(widest, *(len(m.group(0)) for m in found))
    limit = box._CHUNK_CHARS // (widest + 4 * (len(str(-2 * N)) + 1))
    budget = 2 + (N + 1) ** 2 + rows // (limit - 2 * N - 1)
    assert len(writes) <= budget
    # tight enough that a writer of one line per write exceeds it
    assert budget < sum(len(lines) for _, _, lines, *_ in box.keyed_walk(N))
    return rows


def sha256_of(writes):
    h = hashlib.sha256()
    for text in writes:
        h.update(text.encode())
    return h.hexdigest()


# Digests of tables the golden file does not hold: this one's chunks reach
# 202,991 characters when a chunk is 2,048 rows.
TABLE_SHA256 = {
    "table --form X14 --max 6 --format json":
        "7b08660953729f2c2f57a6a1652187b4babedf23e8625ef65ffd9182c9f23128",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--form", "X14", "--max", "4", "--format", "json"],
        ["table", "--form", "G10H", "--max", "4"],
        ["table", "--form", "X12", "--max", "4", "--mod", "691"],
        ["table", "--form", "X14", "--max", "6", "--format", "json"],
    ],
)
def test_table_writes_rows_in_chunks(monkeypatch, argv):
    # one write per chunk of whole lines of at most _CHUNK_CHARS characters,
    # not one per line or row, and the bytes are the golden table's
    out = WriteLog()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    N = int(argv[argv.index("--max") + 1])
    fmt = "json" if "json" in argv else "csv"
    assert check_chunks(out.writes, fmt, N) == sum(box.class_counts(N).values())
    key = " ".join(argv)
    want = GOLDEN_TABLES[key]["sha256"] if key in GOLDEN_TABLES else TABLE_SHA256[key]
    assert sha256_of(out.writes) == want


def test_table_depth_6_writes_whole_lines_in_chunks(monkeypatch):
    # a chunk is the most whole lines within its row limit; a line of depth
    # 6 holds at most 13 rows, so the chunks stay nearly full: 233 writes
    out = WriteLog()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["table", "--form", "G10H", "--max", "6"]) == 0
    rows = sum(box.class_counts(6).values())
    assert check_chunks(out.writes, "csv", 6) == rows


def test_table_unbuffered_stdout_matches_golden():
    # under PYTHONUNBUFFERED each write reaches the pipe as it is made
    argv = ["table", "--form", "G10H", "--max", "4"]
    proc = subprocess.run(
        [sys.executable, "-m", "qmf.cli", *argv],
        capture_output=True,
        env=cli_env(PYTHONUNBUFFERED="1"),
        check=True,
    )
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_TABLES[" ".join(argv)]["sha256"]


# Modules no subcommand loads: __future__, which no qmf module needs,
# dataclasses, with the inspect it imports, the expansions only the box
# lift builds, and argparse, with the gettext it imports and the locale its
# messages load; those only verify has a use for:
# the verifiers, the elliptic algebra and json; and the mathematics, with the
# numeric tower of fractions, which only a subcommand that runs loads.
NEVER_IMPORTED = (
    "__future__", "dataclasses", "inspect", "qmf.fexp", "argparse", "gettext", "locale"
)
VERIFY_IMPORTS = ("json", "qmf.congr", "qmf.series")
# The box walks and the table writer, which coeff does not run.
BOX_IMPORTS = ("qmf.box",)
MATH_IMPORTS = (
    "fractions", "decimal", "numbers", "qmf.exactnum", "qmf.tmat", "qmf.quatlat", "qmf.forms",
    *BOX_IMPORTS,
)
PROBE = (
    "import sys\n"
    "from qmf.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(*sorted(sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)
IMPORT_PROBE = "import sys\nimport qmf.cli\nprint(*sorted(sys.modules), file=sys.stderr)\n"


def probe(argv):
    """The exit code of a fresh interpreter that runs qmf on argv (None:
    imports qmf.cli only), and the names of the modules it loaded."""
    args = [PROBE, *argv] if argv is not None else [IMPORT_PROBE]
    proc = subprocess.run([sys.executable, "-c", *args], capture_output=True, env=cli_env())
    return proc.returncode, set(proc.stderr.decode().splitlines()[-1].split())


def qmf_lines(loaded) -> int:
    """The lines of source of the qmf modules among the names loaded, which
    a process compiles when no bytecode cache is there to read."""
    package = Path(cli.__file__).parent
    modules = [name.partition(".")[2] for name in loaded if name.split(".")[0] == "qmf"]
    files = [package / f"{module or '__init__'}.py" for module in modules]
    return sum(len(path.read_text("utf-8").splitlines()) for path in files)


# (argv, exit code, modules loaded besides qmf.cli, modules not loaded); an
# argv of None imports qmf.cli and runs nothing. Help, a bare qmf, a usage
# error and the import run no mathematics, so they load none; coeff reads
# one index and walks no box. Cases are named by position.
NO_MATH = MATH_IMPORTS + VERIFY_IMPORTS
IMPORT_CASES = [
    (
        ["coeff", "--form", "X14", "--T", "1,3,1,1,0,0", "--mod", "23"],
        0, ("qmf.forms", "qmf.tmat"), VERIFY_IMPORTS + BOX_IMPORTS,
    ),
    (
        ["table", "--form", "G12H", "--max", "2", "--format", "json", "--mod", "691"],
        0, ("qmf.forms", *BOX_IMPORTS), VERIFY_IMPORTS,
    ),
    (["--help"], 0, (), NO_MATH),
    (
        ["verify", "ramanujan", "--k", "14", "--p", "691", "--depth", "2"],
        0, VERIFY_IMPORTS + BOX_IMPORTS, (),
    ),
    (
        ["verify", "theta", "--depth", "1"],
        0, ("json", "qmf.congr", *BOX_IMPORTS), ("qmf.series",),
    ),
    ([], 2, (), NO_MATH),
    (["coeff", "--form", "X10"], 2, (), NO_MATH),
    (None, 0, (), NO_MATH),
]


@pytest.mark.parametrize(
    "argv, code, loads, absent", IMPORT_CASES, ids=[f"argv{i}" for i in range(len(IMPORT_CASES))]
)
def test_subcommand_imports_only_what_it_runs(argv, code, loads, absent):
    returncode, loaded = probe(argv)
    assert returncode == code
    assert {"qmf.cli", *loads} <= loaded
    assert [name for name in NEVER_IMPORTED + absent if name in loaded] == []


def test_forms_imports_no_index_or_box_code():
    # a table reads any index with is_psd() and class_key(): importing forms
    # loads neither the index matrices nor the box walks
    probe = "import sys\nimport qmf.forms\nprint(*sorted(sys.modules))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=cli_env(), check=True
    )
    loaded = set(proc.stdout.split())
    assert "qmf.forms" in loaded
    assert [name for name in ("qmf.tmat", "qmf.box", "qmf.fexp") if name in loaded] == []


@pytest.mark.parametrize(
    "argv", [case[0] for case in IMPORT_CASES], ids=[f"argv{i}" for i in range(len(IMPORT_CASES))]
)
def test_readme_states_the_lines_each_command_compiles(argv):
    # the README's depth guidance states, per command, the lines of the qmf
    # modules it loads, which it compiles without a bytecode cache
    lines = qmf_lines(probe(argv)[1])
    compiling = re.search(r"^Every `qmf` process compiles .*?(?=\n\n)", README, re.M | re.S)
    assert re.search(rf"(?<![\d,]){lines:,}(?![\d,])", compiling.group()), lines


def test_verify_runs_the_verifier_patched_on_congr(capsys, monkeypatch):
    # verify imports congr when it runs, and reads the verifier from it then
    class Stub:
        ok = False

        def to_json(self):
            return {"theorem": "stub"}

    calls = []
    monkeypatch.setattr(congr, "verify_mod23", lambda N: calls.append(N) or Stub())
    code, out, err = run(capsys, ["verify", "mod23", "--depth", "2"])
    assert (code, calls, json.loads(out), err) == (1, [2], {"theorem": "stub"}, "")


def test_failing_verify_into_closed_pipe_exits_1(monkeypatch):
    # a closed pipe drops the verdict's text, not its exit status
    perturb(monkeypatch, "X14", R={7: 1})
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["verify", "mod23", "--depth", "2"]) == 1
