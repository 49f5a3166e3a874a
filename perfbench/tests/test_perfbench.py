"""Tests of the benchmark itself: inputs, computed counts, tracing, checks.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import steady  # noqa: E402
from trace_cli import mul_pairs  # noqa: E402

from qmf.forms import eisenstein_h, x10  # noqa: E402
from qmf.tmat import enumerate_psd, parse_tmatrix  # noqa: E402


# ---------------------------------------------------------------- inputs


def test_same_seed_same_queries():
    assert run.generate_queries(7) == run.generate_queries(7)
    assert run.generate_queries(7) != run.generate_queries(8)


def test_queries_parse_and_lie_in_depth3_box():
    for seed in range(1, 6):
        queries = run.generate_queries(seed)
        assert len(queries) >= 40
        assert Counter(q.form for q in queries) == {f: 5 for f in run.QUERY_FORMS}
        assert sum(q.mod is not None for q in queries) == run.QUERIES_WITH_MOD
        for q in queries:
            T = parse_tmatrix(q.T)
            assert T.is_psd() and T.n <= 3 and T.m <= 3
            assert q.argv[q.argv.index("--T") + 1] == q.T


def test_box_matches_library_enumeration():
    for N in range(4):
        lib = [(T.n, T.m, *T.t) for T in enumerate_psd(N)]
        assert run.box_indices(N) == lib
    assert run.box_size(3) == 8104


# ---------------------------------------------------------------- computed counts


def brute_force_pairs(f, g, N):
    """Iterations of the product kernel's inner loop, one support pair at a time."""
    count = 0
    for T1 in f.support():
        for T2 in g.support():
            if T1.n + T2.n <= N and T1.m + T2.m <= N:
                count += 1
    return count


@pytest.mark.parametrize("pair", ["e4e6", "x10e4"])
def test_pair_count_matches_brute_force_at_depth2(pair):
    N = 2
    f, g = (eisenstein_h(4, N), eisenstein_h(6, N)) if pair == "e4e6" else (x10(N), eisenstein_h(4, N))
    assert mul_pairs(f.support(), g.support(), N) == brute_force_pairs(f, g, N)


def test_self_time_subtracts_children():
    spans = [
        ["cli", None, 0.0, 10.0],
        ["fexp.mul", 0, 1.0, 5.0],
        ["fexp.linear", 1, 2.0, 3.0],
        ["fexp.linear", 0, 6.0, 7.0],
    ]
    got = run.self_times(spans)
    assert got["cli"] == [1, pytest.approx(5.0)]
    assert got["fexp.mul"] == [1, pytest.approx(3.0)]
    assert got["fexp.linear"] == [2, pytest.approx(2.0)]


# ---------------------------------------------------------------- output checks


def _result(cmd, text, code=0):
    return run.Result(cmd, code, 0.1, 0.1, (0.01, 0.01), 1000, len(text), "", text, "", 0)


def test_point_query_check_flags_wrong_answers():
    oracle = run.Oracle()
    good = run.Command(("coeff",), 3, "coeff", "G10H", "1,1,0,0,0,0")
    res = _result(good, "129\n")
    run.check(res, {}, oracle)
    assert res.problems == []
    bad = _result(good, "130\n")
    run.check(bad, {}, oracle)
    assert bad.problems
    modded = run.Command(("coeff",), 3, "coeff", "X14", "1,3,1,1,0,0", 23)
    res = _result(modded, "4830 ≡ 0 (mod 23)\n")
    run.check(res, {}, oracle)
    assert res.problems == []
    failed = _result(good, "", code=2)
    run.check(failed, {}, oracle)
    assert failed.problems


def test_oracle_routes_agree_with_box_product():
    oracle = run.Oracle()
    for form, T in [("X14", "1,3,1,1,0,0"), ("G12H", "2,3,1,1,0,0"), ("G10H", "2,2,0,0,0,0")]:
        want = oracle._build(form, 3).coeff(parse_tmatrix(T))
        assert oracle.coeff(form, T) == want
    assert oracle.coeff("G10H", "1,1,0,0,0,0") == Fraction(129)


def test_traced_command_matches_untraced_stdout(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["table", "--form", "X10", "--max", "2", "--mod", "23"]
    plain = subprocess.run(
        [sys.executable, "-c", run.LAUNCH, *argv], env=env, capture_output=True, check=True
    )
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(BENCH / "trace_cli.py"), str(spans), "--", *argv],
        env=env,
        capture_output=True,
        check=True,
    )
    assert traced.stdout == plain.stdout
    data = json.loads(spans.read_text())
    names = {s[0] for s in data["spans"]}
    assert {"cli", "fexp.mul", "forms.maass_lift", "forms.named"} <= names
    assert data["counts"]["fexp.mul.pairs"] > 0
    assert data["spans"][0][1] is None  # the root span is cli.main


# ---------------------------------------------------------------- steadiness


SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def _set(wall, setup):
    return {"w": {"wall_s": wall, "setup_s": setup}}


STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.2, 9.8, 10.0, 10.1, 9.9]


def test_steady_sets_agree():
    assert steady.check_sets(SPEC, _set(STEADY, STEADY)) == []
    assert steady.check_sets(SPEC, _set(STEADY, STEADY), _set(STEADY, STEADY)) == []


def test_wide_spread_fails_except_for_setup():
    wide = [8.0, 12.0, 8.5, 11.5, 9.0, 11.0, 8.0, 12.0, 10.0, 10.0]
    problems = steady.check_sets(SPEC, _set(wide, wide))
    assert len(problems) == 1 and "wall_s" in problems[0]


def test_worse_second_median_fails_setup_too():
    slower = [v * 1.3 for v in STEADY]
    problems = steady.check_sets(SPEC, _set(STEADY, STEADY), _set(slower, slower))
    assert any("wall_s" in p and "worse" in p for p in problems)
    assert any("setup_s" in p and "worse" in p for p in problems)
    faster = [v * 0.7 for v in STEADY]
    assert steady.check_sets(SPEC, _set(STEADY, STEADY), _set(faster, faster)) == []


def test_higher_is_better_direction():
    assert steady.worsening([10.0, 10.0], [8.0, 8.0], "higher") == pytest.approx(0.2)
    assert steady.worsening([10.0, 10.0], [8.0, 8.0], "lower") == pytest.approx(-0.2)
