"""Theorem verifiers: star condition, chi construction, box sweeps."""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import box_oracle
from box_oracle import cong_mod, eisenstein_q, ring_chi, star_primes, whole_box
from qmf import congr, fexp, forms, tmat
from qmf.congr import (
    build_chi,
    ramanujan_verdict,
    star_condition,
    verify_cong_eis,
    verify_ep_minus_one,
    verify_mod23,
    verify_theta_cong,
)
from qmf.exactnum import kronecker, residue
from qmf.forms import MaassTable, build_form, form_table, g_constant
from qmf.series import e4_e6_monomials, express_in_e4_e6
from qmf.tmat import parse_tmatrix

T0 = parse_tmatrix("1,1,1,1,0,0")
I2 = parse_tmatrix("1,1,0,0,0,0")

STAR_TABLE = {
    4: [],
    6: [],
    8: [],
    10: [17],
    12: [31],
    14: [691],
    16: [43, 127],
    18: [257, 3617],
    20: [73, 43867],
}
STAR_PAIRS = [(k, p) for k, primes in STAR_TABLE.items() for p in primes]


def test_star_condition_frozen():
    assert star_condition(10, 17)
    assert not star_condition(10, 19)
    assert star_condition(14, 691)
    # 691 divides B_12 itself, but the weight-12 pairing prime is 31
    assert not star_condition(12, 691)
    assert star_condition(12, 31)
    assert not star_condition(4, 5)


def test_star_condition_errors():
    with pytest.raises(ValueError):
        star_condition(7, 17)
    with pytest.raises(ValueError):
        star_condition(10, 4)
    with pytest.raises(ValueError):
        star_condition(10, 3)


def test_star_primes_table():
    for k, primes in STAR_TABLE.items():
        assert star_primes(k) == primes
    with pytest.raises(ValueError):
        star_primes(5)


STAR_TABLE_TO_50 = {
    22: [31, 41, 283, 617],
    24: [89, 131, 593, 683],
    26: [17, 103, 241, 2294797],
    28: [2731, 8191, 657931],
    30: [43, 113, 127, 9349, 362903],
    32: [151, 331, 1721, 1001259881],
    34: [37, 257, 683, 65537, 305065927],
    36: [43691, 131071, 151628697551],
    38: [73, 109, 26315271553053477373],
    40: [174763, 524287, 154210205991661],
    42: [17, 31, 61681, 137616929, 1897170067619],
    44: [127, 337, 5419, 1520097643918070802691],
    46: [59, 89, 397, 683, 2113, 8089, 2947939, 1798482437],
    48: [178481, 2796203, 383799511, 67568238839737],
    50: [97, 241, 257, 653, 673, 56039, 153289748932447906241],
}


def test_star_primes_past_trial_division():
    # B_36's numerator leaves the 65-bit prime cofactor 26315271553053477373;
    # cofactors past 3.3e24 (k = 44, 50) go through the strong Lucas test
    assert {k: star_primes(k) for k in STAR_TABLE_TO_50} == STAR_TABLE_TO_50
    for k, primes in STAR_TABLE_TO_50.items():
        assert all(star_condition(k, p) for p in primes)


def test_g_restriction_is_the_scaled_eisenstein_series():
    # G<k>H's Siegel restriction is g_constant(k) E_k by the construction of
    # its table (R(0)/const = -2k/B_k), and the d monomials solved for P span
    # M_k, so the restriction claim fails only where that ratio or sigma_row
    # is wrong
    for k in range(4, 42, 2):
        phi = form_table(f"G{k}H", 0).restriction(30)
        assert phi == [g_constant(k) * c for c in eisenstein_q(k, 30)], k


def test_build_chi_holds_for_every_star_pair():
    # once star_condition holds, p divides G's restriction: with q1 =
    # _star_q1(k), its constant term is -q1 (B_k/k)/4 and its q^j
    # coefficient (q1/2) sigma_(k-1)(j). P is p-integral too, so the
    # certificate holds at every star pair, at the least depth and past it
    for k in range(4, 52, 2):
        d = len(e4_e6_monomials(k, 0))
        for p in star_primes(k):
            phi = form_table(f"G{k}H", 0).restriction(30)
            assert all(residue(c / p, p) is not None for c in phi), (k, p)
            for N in (d - 1, 5):
                assert build_chi(k, p, N)[1], (k, p, N)


def test_build_chi_weight10():
    assert build_chi(10, 17, 2) == ({(1, 1): Fraction(1, 8448)}, True)
    # the verdict sweeps the box: G is 17-integral there, and chi ≡ X10
    assert ramanujan_verdict(10, 17, 2).ok
    chi = ring_chi(10, 17, 2)
    assert chi.weight == 10
    # chi is cuspidal on the box: rank <= 1 coefficients all vanish
    assert all(T.two_det() > 0 for T in chi.support())
    # and congruent to the distinguished weight-10 cusp form
    assert cong_mod(chi.coeff, form_table("X10", 8).coeff, 17, 2).ok
    assert cong_mod(build_form("G10H", 2).coeff, chi.coeff, 17, 2).ok


def test_build_chi_weight14():
    assert build_chi(14, 691, 2) == ({(2, 1): Fraction(1, 384)}, True)
    chi = ring_chi(14, 691, 2)
    assert all(T.two_det() > 0 for T in chi.support())
    assert cong_mod(chi.coeff, form_table("X14", 8).coeff, 691, 2).ok


def test_build_chi_rejects_bad_pairs():
    with pytest.raises(ValueError):
        build_chi(10, 19, 2)
    with pytest.raises(ValueError):
        build_chi(4, 5, 2)


def test_build_chi_depth_check():
    # weight 12 has two monomials (E4^3, E6^2), so P needs q^0 and q^1
    with pytest.raises(ValueError, match="needs depth >= 1.*got depth 0"):
        build_chi(12, 31, 0)
    with pytest.raises(ValueError, match="needs depth >= 1.*got depth 0"):
        build_chi(16, 43, 0)  # E4^4 and E4 E6^2
    # a negative depth is refused with the same message, also where the
    # monomials need only q^0
    with pytest.raises(ValueError, match="needs depth >= 0.*got depth -1"):
        build_chi(10, 17, -1)
    with pytest.raises(ValueError, match="needs depth >= 0.*got depth -2"):
        build_chi(14, 691, -2)
    # weight 10 has one monomial, E4 E6: depth 0 suffices
    assert build_chi(10, 17, 0)[1]
    # the depth-0 box is T = 0 alone: one integrality check, one restriction
    # coefficient and one target check
    v = ramanujan_verdict(10, 17, 0)
    assert v.ok and v.checked == 3
    assert build_chi(12, 31, 1)[1]


def test_ramanujan_verdict():
    v = ramanujan_verdict(10, 17, 2)
    assert v.ok
    assert v.status == "holds"
    assert v.params["target"] == "X10"
    assert v.witnesses == []
    v12 = ramanujan_verdict(12, 31, 2)
    assert v12.ok
    assert "target" not in v12.params
    j = v.to_json()
    assert set(j) == {"theorem", "params", "status", "witnesses", "checked"}
    assert j["theorem"] == "ramanujan-congruence"


def test_verify_ep_minus_one():
    for p in (5, 7, 11, 13):
        v = verify_ep_minus_one(p, 2)
        assert v.ok
        assert v.checked == len(whole_box(2))
    with pytest.raises(ValueError):
        verify_ep_minus_one(9, 2)
    with pytest.raises(ValueError):
        verify_ep_minus_one(3, 2)


def test_verify_theta_cong():
    verdicts = verify_theta_cong(2)
    assert len(verdicts) == 2
    assert all(v.ok for v in verdicts)
    assert verdicts[0].params == {"k": 4, "p": 5, "target": "X10", "depth": 2}
    assert verdicts[1].params == {"k": 6, "p": 7, "target": "X14", "depth": 2}


def test_verify_mod23():
    v = verify_mod23(2)
    assert v.ok
    assert v.params == {"p": 23, "depth": 2}
    # the sweep saw both the direct checks and the corollary comparison
    direct = sum(1 for T in whole_box(2) if kronecker(-23, T.two_det()) == -1)
    assert v.checked == direct + len(whole_box(2))


def test_verify_cong_eis_holds():
    for k, p in ((4, 3), (6, 7), (12, 19)):
        v = verify_cong_eis(k, 2)
        assert v.params["p"] == p
        assert v.ok


def test_verify_cong_eis_composite_rejected():
    with pytest.raises(ValueError):
        verify_cong_eis(16, 2)  # 2k-5 = 27
    with pytest.raises(ValueError):
        verify_cong_eis(20, 2)  # 2k-5 = 35
    with pytest.raises(ValueError):
        verify_cong_eis(7, 2)


def bump(table, R=None, const=0):
    """A copy of table with R[l] += delta for each l: delta in R and the
    constant term moved by const. It is the table of another Maass lift, so
    every index of a class still shares one coefficient."""
    rows = list(table.R)
    for l, delta in (R or {}).items():
        rows[l] += delta
    return MaassTable(table.weight, table.const + const, tuple(rows))


def refuse_box(*args):
    raise AssertionError("a verifier sweep must not list the box")


def perturb(monkeypatch, name, R=None, const=0):
    """Make every table lookup of the named form in congr see the bumps, and
    refuse enumerate_psd: a failing sweep walks iter_keyed, keeping nothing."""

    def form_table(form, L):
        table = forms.form_table(form, L)
        return bump(table, R, const) if form == name else table

    monkeypatch.setattr(congr, "form_table", form_table)
    for module in (fexp, congr, tmat):
        monkeypatch.setattr(module, "enumerate_psd", refuse_box, raising=False)


WALKS = ("enumerate_psd", "iter_keyed", "keyed_walk")


def refuse_walks(monkeypatch, refuse, modules):
    """Make every box or ball walk call refuse: each walk name any of modules
    binds, and each of them in tmat, where the views of keyed_walk and the
    ball it builds look them up, so no walk can start at all."""
    for name in WALKS:
        monkeypatch.setattr(tmat, name, refuse)
        for module in modules:
            monkeypatch.setattr(module, name, refuse, raising=False)


def nonresidues(p, N):
    return [T for T in whole_box(N) if kronecker(-p, T.two_det()) == -1]


def test_verifiers_build_no_expansion(monkeypatch):
    def refuse(*args):
        raise AssertionError("verifiers must read tables, not lifted boxes")

    # a sweep that holds reads classes only: no expansion and no box, cached
    # or walked
    monkeypatch.setattr(fexp.FourierExpansion, "__init__", refuse)
    refuse_walks(monkeypatch, refuse, (fexp, congr))
    assert all(v.ok for v in verify_theta_cong(2))
    assert verify_mod23(2).ok
    assert verify_cong_eis(6, 2).ok
    assert verify_ep_minus_one(7, 2).ok
    for k, p in STAR_PAIRS:
        assert ramanujan_verdict(k, p, 2).ok, (k, p)


def test_each_verifier_counts_its_box_once(monkeypatch):
    # theta, mod23 and ramanujan sweep the box twice, from one class_counts
    calls, class_counts = [], tmat.class_counts
    monkeypatch.setattr(congr, "class_counts", lambda N: calls.append(N) or class_counts(N))
    runs = {
        "theta": lambda: verify_theta_cong(3),
        "mod23": lambda: verify_mod23(3),
        "ramanujan": lambda: ramanujan_verdict(14, 691, 3),
        "congeis": lambda: verify_cong_eis(6, 3),
        "ep1": lambda: verify_ep_minus_one(7, 3),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls == [3], name
    # cong_mod is one sweep, with its own counts, as before
    calls.clear()
    g = form_table("G10H", 18).class_coeff
    assert congr.cong_mod(g, g, 17, 3).ok and calls == [3]


FAILING_SWEEPS = {
    # form, bumped rows, verifier, its index-by-index oracle
    "theta": ("X10", {2: 1, 3: 1}, lambda N: [v.to_json() for v in verify_theta_cong(N)],
              box_oracle.theta_verdicts),
    "ep1": ("E4H", {1: 1}, lambda N: verify_ep_minus_one(5, N).to_json(),
            lambda N: box_oracle.ep1_verdict(5, N)),
    "mod23": ("X14", {7: 1, 20: 1}, lambda N: verify_mod23(N).to_json(),
              box_oracle.mod23_verdict),
    "congeis": ("G6H", {5: 1}, lambda N: verify_cong_eis(6, N).to_json(),
                lambda N: box_oracle.congeis_verdict(6, N)),
}


@pytest.mark.parametrize("name", FAILING_SWEEPS)
def test_failing_sweeps_key_indices_by_the_walk(monkeypatch, name):
    # a failing sweep reads the class of each index it visits from the keyed
    # walk and builds an index matrix only for a witness: with class_key
    # refused, its verdict is still the oracle's
    form, R, verifier, oracle = FAILING_SWEEPS[name]
    perturb(monkeypatch, form, R=R)
    want = oracle(4)
    assert "fails" in json.dumps(want)

    def refuse(self):
        raise AssertionError("a failing sweep must not key an index matrix")

    monkeypatch.setattr(tmat.TMatrix, "class_key", refuse)
    assert verifier(4) == want


@pytest.mark.parametrize(
    "k, p, N", [(k, p, 2) for k, p in STAR_PAIRS] + [(10, 17, 3), (14, 691, 3)]
)
def test_ramanujan_verdict_matches_box_chi(k, p, N):
    assert ramanujan_verdict(k, p, N).to_json() == box_oracle.ramanujan_verdict(k, p, N)


def first_of(two_det, N=2):
    """The first index of the depth-N box with this two_det, in box order."""
    return next(T for T in whole_box(N) if T.two_det() == two_det)


PERTURBED_RAMANUJAN = [
    # two_det 1 precedes two_det 2 in box order, so the target check
    # fails at two_det 1 and the integrality sweep meets the
    # non-p-integral I2; rows past 0 leave G's degree-1 restriction alone
    (10, 17, "G10H", {1: 1, 2: Fraction(1, 17)}),
    (12, 31, "G12H", {1: 1, 2: Fraction(1, 31)}),
    (14, 691, "G14H", {3: 1, 4: Fraction(1, 691)}),
    (14, 691, "X14", {1: 1}),
]


@pytest.mark.parametrize("k, p, name, bumps", PERTURBED_RAMANUJAN)
def test_ramanujan_perturbed_matches_box_chi(monkeypatch, k, p, name, bumps):
    perturb(monkeypatch, name, R=bumps)
    v = ramanujan_verdict(k, p, 2).to_json()
    assert v["status"] == "fails"
    assert v == box_oracle.ramanujan_verdict(k, p, 2)


def test_build_chi_counts_and_walks_no_box(monkeypatch):
    # the certificate states degree-1 facts; ramanujan_verdict sweeps the box
    def refuse(*args, **kwargs):
        raise AssertionError("build_chi must neither count nor walk the box")

    monkeypatch.setattr(congr, "class_counts", refuse)
    refuse_walks(monkeypatch, refuse, (congr,))
    assert build_chi(14, 691, 3)[1]


def index_matrix_reads(source: str) -> list[str]:
    """The imports and attribute reads of parse_tmatrix and TMatrix in
    source, by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
    return [name for name in found if name in ("parse_tmatrix", "TMatrix")]


def test_index_matrix_reads_detects_planted_cases():
    source = (
        "from .tmat import TMatrix, class_counts\n"
        "from . import tmat\n"
        "def parse(text):\n"
        "    return tmat.parse_tmatrix(text)\n"
    )
    assert index_matrix_reads(source) == ["TMatrix", "parse_tmatrix"]


def first_failures(verdicts):
    """The index texts of the witnesses of the box sweeps (_sweep), the
    entries with a detail; the sigma sweep's entries carry ell instead."""
    return [w["T"] for v in verdicts for w in v["witnesses"] if "detail" in w]


@pytest.mark.parametrize("name", FAILING_SWEEPS)
def test_failing_sweeps_walk_the_text_view(monkeypatch, name):
    # a failing sweep names its witness by the text of the walk, as `table`
    # does, and builds no index matrix: congr reads neither parse_tmatrix
    # nor TMatrix
    assert index_matrix_reads(Path(congr.__file__).read_text(encoding="utf-8")) == []
    form, R, verifier, oracle = FAILING_SWEEPS[name]
    perturb(monkeypatch, form, R=R)
    verdicts, want = verifier(4), oracle(4)
    verdicts = verdicts if isinstance(verdicts, list) else [verdicts]
    want = want if isinstance(want, list) else [want]
    assert "fails" in json.dumps(verdicts)
    assert first_failures(verdicts) == first_failures(want)
    # congeis fails only its nonresidue claim, mod23 both of its claims
    assert len(first_failures(verdicts)) == {"theta": 1, "ep1": 1, "mod23": 2, "congeis": 1}[name]


@pytest.mark.parametrize("k, p, name, bumps", PERTURBED_RAMANUJAN)
def test_ramanujan_failing_sweeps_walk_the_text_view(monkeypatch, k, p, name, bumps):
    assert index_matrix_reads(Path(congr.__file__).read_text(encoding="utf-8")) == []
    perturb(monkeypatch, name, R=bumps)
    v = ramanujan_verdict(k, p, 2).to_json()
    assert v["status"] == "fails"
    found = first_failures([v])
    assert found and found == first_failures([box_oracle.ramanujan_verdict(k, p, 2)])


def test_verdict_fails_path(monkeypatch):
    # theta: a bumped X10 fails at the first index of a bumped class in box
    # order, I2 (two_det 2) before the two_det 3 indices
    box = whole_box(2)
    assert I2 == first_of(2) and box.index(I2) < box.index(first_of(3))
    perturb(monkeypatch, "X10", R={2: 1, 3: 1})
    v10, v14 = verify_theta_cong(2)
    assert v10.status == "fails"
    assert v10.witnesses == [{"T": str(I2), "detail": "fails"}]
    assert v10.checked == box.index(I2) + 1
    assert v14.ok and v14.checked == len(box)


def test_verify_mod23_fails_sweep_and_corollary(monkeypatch):
    # two_det 5 and 7 are the nonresidues mod 23 in the box; bumping the
    # row at 7 moves the two_det 7 indices only, and each claim names the
    # first of them, having checked its own indices up to it
    box = whole_box(2)
    bad = nonresidues(23, 2)
    assert {T.two_det() for T in bad} == {5, 7}
    first = next(T for T in bad if T.two_det() == 7)
    assert first != bad[0]
    perturb(monkeypatch, "X14", R={7: 1})
    v = verify_mod23(2)
    assert v.status == "fails"
    assert v.witnesses == [
        {"claim": "23 | a where chi_23 = -1", "T": str(first), "detail": "fails"},
        {"claim": "twisted theta ≡ theta mod 23", "T": str(first), "detail": "fails"},
    ]
    assert v.checked == bad.index(first) + 1 + box.index(first) + 1


def test_verify_mod23_fails_corollary_only(monkeypatch):
    # at a residue index only the twisted-theta comparison reads the value
    box = whole_box(2)
    first = first_of(1)
    assert kronecker(-23, 1) == 1
    perturb(monkeypatch, "X14", R={1: Fraction(1, 23)})
    v = verify_mod23(2)
    assert v.status == "fails"
    assert v.witnesses == [
        {
            "claim": "twisted theta ≡ theta mod 23",
            "T": str(first),
            "detail": "not-p-integral",
        }
    ]
    assert v.checked == len(nonresidues(23, 2)) + box.index(first) + 1


# The two claims that check p-integrality only (the table in the congr
# docstring): no p-integral bump of the rows they read can fail them, and a
# bump by 1/p must.
INTEGRAL_BUMPS = (1, Fraction(1, 2), -3)


def first_moved(table, l, N):
    """The first index of the depth-N box, in box order, whose coefficient
    a bump of table's row at l moves."""
    moved = bump(table, {l: 1})
    return next(T for T in whole_box(N) if moved.coeff(T) != table.coeff(T))


@pytest.mark.parametrize("k, p", [(10, 17), (12, 31), (14, 691)])
def test_ramanujan_chi_claim_checks_integrality_only(monkeypatch, k, p):
    # g_h(k) ≡ chi mod p sweeps G against itself; rows past 0 leave G's
    # degree-1 restriction, and with it P, alone
    N, claim = 2, f"g_h({k}) ≡ chi mod {p}"
    G = form_table(f"G{k}H", 2 * N * N)
    for l in range(1, 2 * N * N + 1):
        for delta in (*INTEGRAL_BUMPS, p - 1):
            with monkeypatch.context() as m:
                perturb(m, f"G{k}H", R={l: delta})
                v = ramanujan_verdict(k, p, N)
            assert all(w.get("claim") != claim for w in v.witnesses), (l, delta)
        with monkeypatch.context() as m:
            perturb(m, f"G{k}H", R={l: Fraction(1, p)})
            v = ramanujan_verdict(k, p, N)
        T = first_moved(G, l, N)
        assert v.witnesses[0] == {"claim": claim, "T": str(T), "detail": "not-p-integral"}


def test_mod23_corollary_checks_integrality_only(monkeypatch):
    # twisted theta ≡ theta mod 23 at a class with kronecker(-23, l) != -1:
    # the sides are equal where it is 1, and where it is 0, 23 | l and the
    # corollary reads 23 a ≡ 0, so a bump there is caught only when it is
    # not 23-integral; depth 4 reaches l = 23
    N, claim = 4, "twisted theta ≡ theta mod 23"
    X14 = form_table("X14", 2 * N * N)
    box, checked = whole_box(N), len(nonresidues(23, N))
    rows = [l for l in range(1, 2 * N * N + 1) if kronecker(-23, l) != -1]
    assert 23 in rows
    for l in rows:
        for delta in INTEGRAL_BUMPS:
            with monkeypatch.context() as m:
                perturb(m, "X14", R={l: delta})
                v = verify_mod23(N)
            assert v.ok and v.checked == checked + len(box), (l, delta)
        with monkeypatch.context() as m:
            perturb(m, "X14", R={l: Fraction(1, 23)})
            v = verify_mod23(N)
        T = first_moved(X14, l, N)
        # at 23 | l the 23 of the theta side cancels the 1/23: 23 a ≡ 1
        detail = "fails" if l % 23 == 0 else "not-p-integral"
        assert v.witnesses == [{"claim": claim, "T": str(T), "detail": detail}]
        assert v.checked == checked + box.index(T) + 1


def test_verify_cong_eis_fails(monkeypatch):
    # two_det 3, 5 and 6 are the nonresidues mod 7 in the box; only the
    # bumped two_det 5 indices fail, and the claim names the first of them,
    # as "not-p-integral" when the bump puts 7 in the denominator
    bad = nonresidues(7, 2)
    assert {T.two_det() for T in bad} == {3, 5, 6}
    first = next(T for T in bad if T.two_det() == 5)
    sigma_checked = sum(1 for ell in range(1, 501) if kronecker(-7, ell) == -1)
    for delta, detail in ((1, "fails"), (Fraction(1, 7), "not-p-integral")):
        with monkeypatch.context() as m:
            perturb(m, "G6H", R={5: delta})
            v = verify_cong_eis(6, 2)
        assert v.status == "fails"
        assert v.witnesses == [
            {"claim": "7 | a where chi_7 = -1", "T": str(first), "detail": detail}
        ]
        assert v.checked == bad.index(first) + 1 + sigma_checked


def test_verify_ep_minus_one_fails(monkeypatch):
    box = whole_box(2)
    first = first_of(1)
    assert box.index(first) < box.index(first_of(2))
    perturb(monkeypatch, "E4H", R={1: 1, 2: 1})
    v = verify_ep_minus_one(5, 2)
    assert v.status == "fails"
    assert v.witnesses == [{"T": str(first), "detail": "fails"}]
    assert v.checked == box.index(first) + 1


def test_ramanujan_named_target_fails(monkeypatch):
    box = whole_box(2)
    perturb(monkeypatch, "X10", R={2: 1, 3: 1})
    v = ramanujan_verdict(10, 17, 2)
    assert v.status == "fails"
    assert v.witnesses == [
        {"claim": "chi ≡ X10 mod 17", "T": str(I2), "detail": "fails"}
    ]
    # the certificate's full sweep, the N + 1 restriction checks, then the
    # target sweep up to its first failure
    assert v.checked == len(box) + 3 + box.index(I2) + 1


@pytest.mark.parametrize("k, p, N", [(10, 17, 2), (12, 31, 2), (14, 691, 3)])
def test_ramanujan_restriction_certificate(monkeypatch, k, p, N):
    # a bump of R(0) by p moves the restriction a((j, 0, 0)) = R(0) *
    # sigma_(k-1)(j) by p * sigma_(k-1)(j) at every j >= 1: P stays
    # p-integral, but the restriction of chi is then no modular form and
    # cannot vanish, while every other coefficient of G moves by a multiple
    # of p or not at all, so all but the restriction claim agree with the
    # verdict on the clean tables
    clean = box_oracle.ramanujan_verdict(k, p, N)
    perturb(monkeypatch, f"G{k}H", R={0: p})
    v = ramanujan_verdict(k, p, N)
    assert v.status == "fails"
    assert v.witnesses[0] == {"claim": "degree-1 restriction of chi vanishes"}
    assert v.witnesses[1:] == clean["witnesses"] == []
    assert v.checked == clean["checked"]
    assert not build_chi(k, p, N)[1]


def fits(k, coeffs):
    """Whether express_in_e4_e6 writes coeffs in E4 and E6: False where it
    raises its residual mismatch."""
    try:
        express_in_e4_e6(k, coeffs)
    except ValueError as err:
        assert "residual mismatch" in str(err), err
        return False
    return True


@pytest.mark.parametrize("bumped", [False, True])
def test_build_chi_fits_as_express_in_e4_e6_does(monkeypatch, bumped):
    # build_chi and express_in_e4_e6 read the fit of P(E4, E6) from the one
    # series._express: P is express_in_e4_e6 of the first d coefficients of
    # phi/p, and the certificate fails exactly where express_in_e4_e6 finds
    # a residual mismatch on all N + 1 of them, on the clean tables and with
    # the bump R(0) += p of test_ramanujan_restriction_certificate
    failing = 0
    for k in range(4, 52, 2):
        d = len(e4_e6_monomials(k, 0))
        for p in star_primes(k):
            if bumped:
                perturb(monkeypatch, f"G{k}H", R={0: p})
            for N in (d - 1, 5):
                phi = congr.form_table(f"G{k}H", 2 * N * N).restriction(N)
                quotient = [c / p for c in phi]
                vanishes = fits(k, quotient)
                assert build_chi(k, p, N) == (express_in_e4_e6(k, quotient[:d]), vanishes)
                failing += not vanishes
    # the bump fails each of the 75 star pairs to k = 50 at depth 5; at
    # depth d - 1 no coefficient lies past the solve
    assert failing == (75 if bumped else 0)


def _bumps(rng, N, p, ramanujan):
    """Random bumps of up to three rows and, half the time, of the constant
    term: a third of the time by multiples of p, which keep every congruence,
    else by 1, p, 1/p or a small integer. The box chi and build_chi both read
    G's degree-1 restriction from the lift, so for ramanujan R[0] moves too,
    by multiples of p only, and the constant term not at all: G's
    restriction stays divisible by p, as the star condition makes it."""
    if rng.random() < 1 / 3:
        deltas = (p, -2 * p)
    else:
        deltas = (1, p, Fraction(1, p), rng.randint(-3, 3))
    R = {}
    for _ in range(rng.randint(1, 3)):
        l = rng.randrange(2 * N * N + 1)
        R[l] = rng.choice((p, -2 * p) if ramanujan and l == 0 else deltas)
    const = 0 if ramanujan or rng.random() < 0.5 else rng.choice(deltas)
    return R, const


DIFFERENTIAL = {
    # verifier, oracle, {form: modulus} the random bumps hit
    "theta": (
        lambda N: [v.to_json() for v in verify_theta_cong(N)],
        box_oracle.theta_verdicts,
        {"G4H": 5, "X10": 5, "G6H": 7, "X14": 7},
    ),
    "ep1": (
        lambda N: verify_ep_minus_one(7, N).to_json(),
        lambda N: box_oracle.ep1_verdict(7, N),
        {"E6H": 7},
    ),
    "mod23": (
        lambda N: verify_mod23(N).to_json(),
        box_oracle.mod23_verdict,
        {"X14": 23},
    ),
    "congeis": (
        lambda N: verify_cong_eis(6, N).to_json(),
        lambda N: box_oracle.congeis_verdict(6, N),
        {"G6H": 7},
    ),
    "ramanujan": (
        lambda N: ramanujan_verdict(14, 691, N).to_json(),
        lambda N: box_oracle.ramanujan_verdict(14, 691, N),
        {"G14H": 691, "X14": 691},
    ),
}


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_class_sweep_matches_index_oracle(monkeypatch, name):
    # each verifier on randomly bumped tables against the index-by-index
    # oracle on the whole box: status, witnesses and checked all equal
    verifier, oracle, moduli = DIFFERENTIAL[name]
    rng = random.Random(f"class-sweep-{name}")
    statuses = set()
    for _ in range(8):
        # the ramanujan oracle multiplies whole boxes, seconds each at N = 4
        N = rng.choice((1, 2, 3, 4) if name != "ramanujan" else (1, 2, 3))
        form = rng.choice(sorted(moduli))
        R, const = _bumps(rng, N, moduli[form], name == "ramanujan")
        with monkeypatch.context() as m:
            perturb(m, form, R=R, const=const)
            got = verifier(N)
            assert got == oracle(N), (N, form, R, const)
        statuses.update(v["status"] for v in (got if isinstance(got, list) else [got]))
    assert statuses == {"holds", "fails"}


EVERY_NONRESIDUE = {
    # form, modulus, the rows l <= 18 with kronecker(-p, l) = -1
    "mod23": ("X14", 23, [5, 7, 10, 11, 14, 15, 17]),
    "congeis": ("G6H", 7, [3, 5, 6, 10, 12, 13, 17]),
}


@pytest.mark.parametrize("name", EVERY_NONRESIDUE)
def test_bump_at_every_nonresidue_row_matches_index_oracle(monkeypatch, name):
    # a bump of one nonresidue row l <= 2N^2 at a time, by 1 and by 1/p,
    # fails the vanishing claim ("fails", "not-p-integral"), and mod23's
    # corollary too: whole verdicts equal the oracle's
    N = 3
    form, p, rows = EVERY_NONRESIDUE[name]
    verifier, oracle, _ = DIFFERENTIAL[name]
    assert rows == [l for l in range(1, 2 * N * N + 1) if kronecker(-p, l) == -1]
    for l in rows:
        for delta in (1, Fraction(1, p)):
            with monkeypatch.context() as m:
                perturb(m, form, R={l: delta})
                got = verifier(N)
                assert got == oracle(N), (l, delta)
            assert got["status"] == "fails", (l, delta)


def readers(source: str, name: str) -> list[str]:
    """The functions of source that read name, as a bare name, an attribute
    or an import under another name, once per read in source order, each by
    its qualified name ("" for code outside any function or class)."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        elif (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name and node.asname)
        ):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


def test_readers_detects_planted_cases():
    source = (
        "from .tmat import iter_keyed, parse_tmatrix\n"
        "from .tmat import iter_keyed as walk\n"
        "from . import tmat\n"
        "rows = iter_keyed\n"
        "def _sweep(N):\n"
        "    return next(iter_keyed(N))\n"
        "def listed(N):\n"
        "    def inner():\n"
        "        return [row for row in tmat.iter_keyed(N)]\n"
        "    return inner()\n"
        "class C:\n"
        "    def m(self, N):\n"
        "        return list(iter_keyed(N))\n"
        "def parsed(text):\n"
        "    return parse_tmatrix(text)\n"
    )
    assert readers(source, "iter_keyed") == ["", "", "_sweep", "listed.inner", "C.m"]


def test_congr_walks_the_box_in_sweep_alone():
    # every claim's fail walk is _sweep's: a second walk of the box, such as
    # a sweep that lists every failing index, would read a walk elsewhere
    source = Path(congr.__file__).read_text(encoding="utf-8")
    got = {name: readers(source, name) for name in WALKS}
    assert got == {"enumerate_psd": [], "iter_keyed": ["_sweep"], "keyed_walk": []}


def subscripts(source: str, function: str) -> list[str]:
    """The subscripts the body of the named top-level function in source
    takes, as source text, outermost first."""
    (node,) = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    return [
        ast.unparse(sub)
        for stmt in node.body
        for sub in ast.walk(stmt)
        if isinstance(sub, ast.Subscript)
    ]


def test_build_chi_subscripts_no_monomial():
    # build_chi hands phi/p whole to series._express and reads (P, miss)
    # back, so the fit of P(E4, E6) past the solve is checked there alone:
    # it subscripts no monomial and no coefficient, where a residual loop in
    # build_chi reads monomials[ab][d:]
    source = Path(congr.__file__).read_text(encoding="utf-8")
    assert subscripts(source, "build_chi") == []
    planted = (
        "def build_chi(phi, poly, monomials, d, p):\n"
        "    rest = phi[d:]\n"
        "    for ab, c in poly.items():\n"
        "        rest = [x - p * c * y for x, y in zip(rest, monomials[ab][d:])]\n"
        "    return not any(rest)\n"
    )
    assert subscripts(planted, "build_chi") == ["phi[d:]", "monomials[ab][d:]", "monomials[ab]"]
