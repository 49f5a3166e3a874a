"""Theorem verifiers: star condition, chi construction, box sweeps."""

from fractions import Fraction

import pytest

from box_oracle import ring_chi
from qmf import congr, fexp, forms
from qmf.congr import (
    build_chi,
    ramanujan_verdict,
    star_condition,
    star_primes,
    verify_cong_eis,
    verify_ep_minus_one,
    verify_mod23,
    verify_theta_cong,
)
from qmf.exactnum import kronecker
from qmf.fexp import FourierExpansion, cong_mod
from qmf.forms import build_form, form_table
from qmf.tmat import enumerate_psd, parse_tmatrix

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


def test_build_chi_weight10():
    report = build_chi(10, 17, 2)
    assert report.poly == {(1, 1): Fraction(1, 8448)}
    assert report.phi_vanishes
    assert report.congruence.ok
    assert report.ok
    chi = ring_chi(10, 17, 2)
    assert chi.weight == 10
    # chi is cuspidal on the box: rank <= 1 coefficients all vanish
    assert all(T.rank() == 2 for T in chi.support())
    # and congruent to the distinguished weight-10 cusp form
    assert cong_mod(chi.coeff, form_table("X10", 8).coeff, 17, 2).ok
    assert cong_mod(build_form("G10H", 2).coeff, chi.coeff, 17, 2).ok


def test_build_chi_weight14():
    report = build_chi(14, 691, 2)
    assert report.poly == {(2, 1): Fraction(1, 384)}
    assert report.ok
    chi = ring_chi(14, 691, 2)
    assert all(T.rank() == 2 for T in chi.support())
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
    # weight 10 has one monomial, E4 E6: depth 0 suffices
    report = build_chi(10, 17, 0)
    assert report.ok and report.congruence.checked == 1
    assert build_chi(12, 31, 1).ok


def test_build_chi_report_json():
    j = build_chi(10, 17, 2).to_json()
    assert j["k"] == 10 and j["p"] == 17 and j["depth"] == 2
    assert j["poly"] == [{"e4": 1, "e6": 1, "num": "1", "den": "8448"}]
    assert j["phi_vanishes"] is True
    assert j["congruence"] == "holds"


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
        assert v.checked == len(enumerate_psd(2))
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
    direct = sum(1 for T in enumerate_psd(2) if kronecker(-23, T.two_det()) == -1)
    assert v.checked == direct + len(enumerate_psd(2))


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


class Perturbed:
    """A table whose coefficient at each index in bumps is shifted by it;
    its degree-1 restriction phi0 is the table's own."""

    def __init__(self, table, bumps):
        self.table, self.bumps = table, bumps
        self.phi0 = table.phi0

    def coeff(self, T):
        return self.table.coeff(T) + self.bumps.get(T, 0)


def perturb(monkeypatch, name, bumps):
    """Make every table lookup of the named form in congr see the bumps."""

    def form_table(form, L):
        table = forms.form_table(form, L)
        return Perturbed(table, bumps) if form == name else table

    monkeypatch.setattr(congr, "form_table", form_table)


def nonresidues(p, N):
    return [T for T in enumerate_psd(N) if kronecker(-p, T.two_det()) == -1]


def test_verifiers_build_no_expansion(monkeypatch):
    def refuse(*args):
        raise AssertionError("verifiers must read tables, not lifted boxes")

    monkeypatch.setattr(fexp.FourierExpansion, "__init__", refuse)
    assert all(v.ok for v in verify_theta_cong(2))
    assert verify_mod23(2).ok
    assert verify_cong_eis(6, 2).ok
    assert verify_ep_minus_one(7, 2).ok
    for k, p in STAR_PAIRS:
        assert ramanujan_verdict(k, p, 2).ok, (k, p)


def box_verdict(k, p, N):
    """The ramanujan verdict JSON computed from the box chi of
    box_oracle.ring_chi, reading G and the named target through congr."""
    L = 2 * N * N
    g = congr.form_table(f"G{k}H", L)
    G = FourierExpansion(k, N, {T: g.coeff(T) for T in enumerate_psd(N)})
    chi = ring_chi(k, p, N, G)

    def failed(check, claim):
        if check.ok:
            return []
        return [{"claim": claim, "T": str(check.witness), "detail": check.status}]

    witnesses = []
    if not chi.siegel_phi().is_zero():
        witnesses.append({"claim": "degree-1 restriction of chi vanishes"})
    cert = cong_mod(G.coeff, chi.coeff, p, N)
    witnesses += failed(cert, f"g_h({k}) ≡ chi mod {p}")
    checked = cert.checked + N + 1
    params = {"k": k, "p": p, "depth": N}
    name = {(10, 17): "X10", (14, 691): "X14"}.get((k, p))
    if name:
        extra = cong_mod(chi.coeff, congr.form_table(name, L).coeff, p, N)
        witnesses += failed(extra, f"chi ≡ {name} mod {p}")
        checked += extra.checked
        params["target"] = name
    return {
        "theorem": "ramanujan-congruence",
        "params": params,
        "status": "fails" if witnesses else "holds",
        "witnesses": witnesses,
        "checked": checked,
    }


@pytest.mark.parametrize(
    "k, p, N", [(k, p, 2) for k, p in STAR_PAIRS] + [(10, 17, 3), (14, 691, 3)]
)
def test_ramanujan_verdict_matches_box_chi(k, p, N):
    assert ramanujan_verdict(k, p, N).to_json() == box_verdict(k, p, N)


@pytest.mark.parametrize(
    "k, p, name, bumps",
    [
        # I2 precedes T0 in box order, so the target check fails at I2 and
        # the certificate meets the non-p-integral T0
        (10, 17, "G10H", {I2: 1, T0: Fraction(1, 17)}),
        (12, 31, "G12H", {T0: 1, I2: Fraction(1, 31)}),
        (14, 691, "G14H", {parse_tmatrix("0,2,0,0,0,0"): 1, T0: Fraction(1, 691)}),
        (14, 691, "X14", {T0: 1}),
    ],
)
def test_ramanujan_perturbed_matches_box_chi(monkeypatch, k, p, name, bumps):
    perturb(monkeypatch, name, bumps)
    v = ramanujan_verdict(k, p, 2).to_json()
    assert v["status"] == "fails"
    assert v == box_verdict(k, p, 2)


def test_verdict_fails_path(monkeypatch):
    # theta: a bumped X10 fails at the first bumped index in box order
    box = enumerate_psd(2)
    perturb(monkeypatch, "X10", {T0: 1, I2: 1})
    assert box.index(I2) < box.index(T0)
    v10, v14 = verify_theta_cong(2)
    assert v10.status == "fails"
    assert v10.witnesses == [{"T": str(I2), "detail": "fails"}]
    assert v10.checked == box.index(I2) + 1
    assert v14.ok and v14.checked == len(box)


def test_verify_mod23_fails_sweep_and_corollary(monkeypatch):
    box = enumerate_psd(2)
    bad = nonresidues(23, 2)
    first, last = bad[0], bad[-1]
    a = form_table("X14", 8).coeff
    perturb(monkeypatch, "X14", {last: 1, first: 1})
    v = verify_mod23(2)
    assert v.status == "fails"
    assert v.witnesses == [
        {"T": str(first), "coeff": str(a(first) + 1)},
        {"T": str(last), "coeff": str(a(last) + 1)},
        {"claim": "twisted theta ≡ theta mod 23", "T": str(first), "detail": "fails"},
    ]
    assert v.checked == len(bad) + box.index(first) + 1


def test_verify_mod23_fails_corollary_only(monkeypatch):
    # at a residue index only the twisted-theta comparison reads the value
    box = enumerate_psd(2)
    assert kronecker(-23, T0.two_det()) == 1
    perturb(monkeypatch, "X14", {T0: Fraction(1, 23)})
    v = verify_mod23(2)
    assert v.status == "fails"
    assert v.witnesses == [
        {
            "claim": "twisted theta ≡ theta mod 23",
            "T": str(T0),
            "detail": "not-p-integral",
        }
    ]
    assert v.checked == len(nonresidues(23, 2)) + box.index(T0) + 1


def test_verify_cong_eis_fails(monkeypatch):
    bad = nonresidues(7, 2)
    a = form_table("G6H", 8).coeff
    perturb(monkeypatch, "G6H", {bad[2]: 1, bad[1]: 1})
    v = verify_cong_eis(6, 2)
    assert v.status == "fails"
    assert v.witnesses == [
        {"T": str(T), "coeff": str(a(T) + 1)} for T in (bad[1], bad[2])
    ]
    sigma_checked = sum(1 for ell in range(1, 501) if kronecker(-7, ell) == -1)
    assert v.checked == len(bad) + sigma_checked


def test_verify_ep_minus_one_fails(monkeypatch):
    box = enumerate_psd(2)
    assert box.index(T0) > 5
    perturb(monkeypatch, "E4H", {T0: 1, box[5]: 1})
    v = verify_ep_minus_one(5, 2)
    assert v.status == "fails"
    assert v.witnesses == [{"T": str(box[5]), "detail": "fails"}]
    assert v.checked == 6


def test_ramanujan_named_target_fails(monkeypatch):
    box = enumerate_psd(2)
    perturb(monkeypatch, "X10", {T0: 1, I2: 1})
    v = ramanujan_verdict(10, 17, 2)
    assert v.status == "fails"
    assert v.witnesses == [
        {"claim": "chi ≡ X10 mod 17", "T": str(I2), "detail": "fails"}
    ]
    # the certificate's full sweep, the N + 1 restriction checks, then the
    # target sweep up to its first failure
    assert v.checked == len(box) + 3 + box.index(I2) + 1
