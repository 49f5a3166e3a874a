"""The certificate's elliptic algebra: E4 and E6 read from the Eisenstein
tables, tau from the X14 row, both against frozen values and the oracles'
sigma formula and eta product; the basis algebra."""

import random
from fractions import Fraction

import pytest

from box_oracle import eisenstein_q, eta24_oracle, tau, tau_star
from qmf.exactnum import bernoulli, ord_p, sigma
from qmf.forms import form_table
from qmf.series import QSeries, e4_e6_monomials, express_in_e4_e6


def restricted_e(k, prec):
    """The library's E_k: the Siegel restriction of the weight-k Eisenstein
    table, read from its lift."""
    E = form_table(f"E{k}H", 0)
    return QSeries(k, tuple(E.class_coeff((0, j)) for j in range(prec + 1)))


def delta_q(prec):
    """The weight-12 cusp form, with the oracle's tau as coefficients."""
    return QSeries(12, tuple(Fraction(tau(n)) for n in range(prec + 1)))


TAU_FROZEN = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


def test_eisenstein_q_frozen():
    for e_q in (restricted_e, eisenstein_q):
        e4 = e_q(4, 8)
        assert [e4.coeff(n) for n in range(9)] == [
            1, 240, 2160, 6720, 17520, 30240, 60480, 82560, 140400]
        e6 = e_q(6, 3)
        assert [e6.coeff(n) for n in range(4)] == [1, -504, -16632, -122976]
        e10 = e_q(10, 2)
        assert e10.coeff(1) == -264
        assert e10.coeff(2) == -264 * sigma(9, 2)


def test_eisenstein_q_matches_bernoulli_normalization():
    for k in (4, 6, 8, 10, 12, 14):
        e = restricted_e(k, 6)
        c = Fraction(-2 * k) / bernoulli(k)
        for n in range(1, 7):
            assert e.coeff(n) == c * sigma(k - 1, n)
        assert e == eisenstein_q(k, 6)
    # the certificate's generators are these restrictions
    assert e4_e6_monomials(4, 30) == {(1, 0): eisenstein_q(4, 30)}
    assert e4_e6_monomials(6, 30) == {(0, 1): eisenstein_q(6, 30)}


def test_tau_frozen_and_eta_oracle():
    assert [tau(n) for n in range(1, 11)] == TAU_FROZEN
    assert tau(4) == -1472
    assert tau(0) == 0
    oracle = eta24_oracle(50)
    R = form_table("X14", 50).R
    for n in range(1, 51):
        assert tau(n) == oracle[n]
        # the X14 row is tau away from multiples of 4
        if n % 4:
            assert R[n] == oracle[n]


def test_tau_hecke_properties():
    # multiplicativity and the prime-square recursion pin the oracle
    assert tau(6) == tau(2) * tau(3)
    assert tau(10) == tau(2) * tau(5)
    assert tau(12) == tau(3) * tau(4)
    for p in (2, 3, 5, 7):
        assert tau(p * p) == tau(p) ** 2 - p**11
    with pytest.raises(ValueError):
        tau(-1)


def test_tau_star_frozen():
    R = form_table("X14", 8).R
    for tau_star_of in (tau_star, R.__getitem__):
        assert tau_star_of(0) == 0
        assert tau_star_of(1) == 1
        assert tau_star_of(2) == -24
        assert tau_star_of(3) == 252
        assert tau_star_of(4) == -1472 - 4096 == -5568
        assert tau_star_of(5) == 4830
        assert tau_star_of(8) == 84480 - 4096 * (-24) == 182784
        assert tau_star_of(7) == tau(7)


def test_delta_identity_with_eisenstein():
    # E4^3 - E6^2 = 1728 Delta, from the certificate's own monomials
    mons = e4_e6_monomials(12, 16)
    lhs = mons[(3, 0)] - mons[(0, 2)]
    d = delta_q(16)
    for n in range(17):
        assert lhs.coeff(n) == 1728 * d.coeff(n)


def test_qseries_algebra():
    e4 = eisenstein_q(4, 10)
    e6 = eisenstein_q(6, 10)
    assert (e4 * e6).weight == 10
    assert (e4 * e6).prec == 10
    assert e4 * e6 == e6 * e4
    assert (e4 * e4) * e6 == e4 * (e4 * e6)
    assert (e4 + e4) == e4.scale(2)
    assert (e4 - e4).is_zero()
    assert e4.scale(Fraction(1, 3)).coeff(1) == 80
    short = eisenstein_q(4, 5)
    assert (e4 + short).prec == 5
    with pytest.raises(ValueError):
        e4 + e6  # weight mismatch
    with pytest.raises(IndexError):
        e4.coeff(11)
    assert e4.truncate(4).prec == 4
    with pytest.raises(ValueError):
        e4.truncate(20)


def test_express_frozen_cases():
    e4 = eisenstein_q(4, 6)
    assert express_in_e4_e6(e4) == {(1, 0): Fraction(1)}
    e10 = eisenstein_q(10, 6)
    assert express_in_e4_e6(e10) == {(1, 1): Fraction(1)}
    e14 = eisenstein_q(14, 6)
    assert express_in_e4_e6(e14) == {(2, 1): Fraction(1)}
    d = delta_q(8)
    assert express_in_e4_e6(d) == {
        (3, 0): Fraction(1, 1728),
        (0, 2): Fraction(-1, 1728),
    }
    # the classical two-term expression in weight 12
    e12 = eisenstein_q(12, 8)
    assert express_in_e4_e6(e12) == {
        (3, 0): Fraction(441, 691),
        (0, 2): Fraction(250, 691),
    }


def test_express_random_roundtrip():
    rng = random.Random(2)
    e4 = eisenstein_q(4, 10)
    e6 = eisenstein_q(6, 10)
    mons = {
        (4, 0): e4 * e4 * e4 * e4,
        (1, 2): e4 * e6 * e6,
    }
    for _ in range(20):
        coeffs = {
            ab: Fraction(rng.randrange(-99, 100), rng.randrange(1, 30))
            for ab in mons
        }
        f = QSeries(16, tuple(
            sum(c * mons[ab].coeff(n) for ab, c in coeffs.items())
            for n in range(11)
        ))
        got = express_in_e4_e6(f)
        assert got == {ab: c for ab, c in coeffs.items() if c != 0}


def test_express_rejects_non_span():
    e4 = eisenstein_q(4, 8)
    perturbed = QSeries(4, tuple(
        e4.coeff(n) + (1 if n == 5 else 0) for n in range(9)
    ))
    with pytest.raises(ValueError):
        express_in_e4_e6(perturbed)


def test_express_rejects_bad_weight_and_precision():
    with pytest.raises(ValueError):
        express_in_e4_e6(QSeries(5, (Fraction(1), Fraction(0))))
    # weight-2 space is empty: only the zero series passes
    assert express_in_e4_e6(QSeries(2, (Fraction(0), Fraction(0)))) == {}
    with pytest.raises(ValueError):
        express_in_e4_e6(QSeries(2, (Fraction(1), Fraction(0))))
    with pytest.raises(ValueError):
        express_in_e4_e6(QSeries(12, (Fraction(1),)))  # needs 2 coefficients


def test_elliptic_weight12_congruence_mod_691():
    # classical pairing of the weight-12 Eisenstein and cusp coefficients
    prec = 20
    g12 = eisenstein_q(12, prec).scale(-bernoulli(12) / 24)
    d = delta_q(prec)
    for n in range(prec + 1):
        assert ord_p(g12.coeff(n) - d.coeff(n), 691) >= 1
    assert g12.coeff(0) == Fraction(691, 65520)
    for n in range(1, prec + 1):
        assert g12.coeff(n) == sigma(11, n)
