"""End-to-end CLI tests driving qmf.cli.main in process."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from box_oracle import RING_MEMBERS, whole_box
from qmf import cli, fexp, forms, tmat
from qmf.cli import main
from qmf.forms import build_form, form_table
from qmf.series import tau_star
from test_congr import perturb, refuse_walks
from test_golden_cli import GOLDEN, digest

T0 = "1,1,1,1,0,0"
I2 = "1,1,0,0,0,0"


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
        cli._cmd_coeff(argparse.Namespace(form=name, T=str(T), mod=None))
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
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["table"]

    def refuse(self):
        raise AssertionError("table must not key or print an index matrix per row")

    monkeypatch.setattr(tmat.TMatrix, "class_key", refuse)
    monkeypatch.setattr(tmat.TMatrix, "__str__", refuse)
    for fmt in ([], ["--format", "json"]):
        for mod in ([], ["--mod", "691"]):
            argv = ["table", "--form", "X14", "--max", "3", *fmt, *mod]
            assert digest(argv) == golden[" ".join(argv)]
            assert golden[" ".join(argv)]["exit"] == 0
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
    # counted once
    calls = []

    def counted(N):
        calls.append(N)
        return tmat.class_counts(N)

    monkeypatch.setattr(cli, "class_counts", counted)
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


def test_no_command_exit2(capsys):
    assert main([]) == 2


def test_bad_theorem_name_exit2(capsys):
    assert main(["verify", "nosuch"]) == 2


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


def test_table_into_closed_pipe_exits_0_silently():
    # the reader stops after two lines, as `qmf table ... | head -2` does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmf.cli", "table", "--form", "X10", "--max", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""
    assert head == [b"T,num,den\n", b'"0,0,0,0,0,0",0,1\n']


def test_failing_verify_into_closed_pipe_exits_1(monkeypatch):
    # a closed pipe drops the verdict's text, not its exit status
    perturb(monkeypatch, "X14", R={7: 1})
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["verify", "mod23", "--depth", "2"]) == 1
