"""The certificate's elliptic algebra: E4 and E6 read from the Eisenstein
tables, tau from the X14 row, both against frozen values and the oracles'
sigma formula and eta product; the product of coefficient tuples and the
basis algebra."""

import random
from fractions import Fraction

import pytest

from box_oracle import eisenstein_q, eta24_oracle, sigma, tau, tau_star
from qmf import forms, series
from qmf.exactnum import bernoulli, residue
from qmf.forms import _mul, form_table
from qmf.series import e4_e6_monomials, express_in_e4_e6


def restricted_e(k, prec):
    """The library's E_k: the Siegel restriction of the weight-k Eisenstein
    table, read from its lift."""
    E = form_table(f"E{k}H", 0)
    return tuple(E.class_coeff((0, j)) for j in range(prec + 1))


def delta_q(prec):
    """The weight-12 cusp form, with the oracle's tau as coefficients."""
    return tuple(Fraction(tau(n)) for n in range(prec + 1))


TAU_FROZEN = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


def test_eisenstein_q_frozen():
    for e_q in (restricted_e, eisenstein_q):
        e4 = e_q(4, 8)
        assert e4 == (1, 240, 2160, 6720, 17520, 30240, 60480, 82560, 140400)
        assert e_q(6, 3) == (1, -504, -16632, -122976)
        e10 = e_q(10, 2)
        assert e10[1] == -264
        assert e10[2] == -264 * sigma(9, 2)


def test_eisenstein_q_matches_bernoulli_normalization():
    for k in (4, 6, 8, 10, 12, 14):
        e = restricted_e(k, 6)
        c = Fraction(-2 * k) / bernoulli(k)
        for n in range(1, 7):
            assert e[n] == c * sigma(k - 1, n)
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
    d = delta_q(16)
    for n in range(17):
        assert mons[(3, 0)][n] - mons[(0, 2)][n] == 1728 * d[n]


def power(f, n):
    """f**n as a coefficient tuple, by repeated truncated products."""
    out = (Fraction(1),) + (Fraction(0),) * (len(f) - 1)
    for _ in range(n):
        out = _mul(out, f)
    return out


def test_truncated_product():
    e4 = eisenstein_q(4, 10)
    e6 = eisenstein_q(6, 10)
    assert _mul(e4, e6) == _mul(e6, e4) == eisenstein_q(10, 10)
    assert _mul(_mul(e4, e4), e6) == _mul(e4, _mul(e4, e6))
    assert power(e4, 0) == (1,) + (0,) * 10
    # the product truncates to the shorter factor
    short = eisenstein_q(4, 5)
    assert _mul(e6, short) == _mul(short, e6) == eisenstein_q(10, 5)
    assert _mul(e4, ()) == ()


def test_one_truncated_product():
    # the certificate's monomials and the cusp rows share one convolution
    assert series._mul is forms._mul


def test_express_frozen_cases():
    assert express_in_e4_e6(4, eisenstein_q(4, 6)) == {(1, 0): Fraction(1)}
    assert express_in_e4_e6(10, eisenstein_q(10, 6)) == {(1, 1): Fraction(1)}
    assert express_in_e4_e6(14, eisenstein_q(14, 6)) == {(2, 1): Fraction(1)}
    assert express_in_e4_e6(12, delta_q(8)) == {
        (3, 0): Fraction(1, 1728),
        (0, 2): Fraction(-1, 1728),
    }
    # the classical two-term expression in weight 12
    assert express_in_e4_e6(12, eisenstein_q(12, 8)) == {
        (3, 0): Fraction(441, 691),
        (0, 2): Fraction(250, 691),
    }


# the weight-k monomials E4^a E6^b: 2, 3 and 4 unknowns to eliminate
MONOMIALS = {
    16: ((4, 0), (1, 2)),
    24: ((6, 0), (3, 2), (0, 4)),
    36: ((9, 0), (6, 2), (3, 4), (0, 6)),
}


def test_express_random_roundtrip():
    rng = random.Random(2)
    e4 = eisenstein_q(4, 10)
    e6 = eisenstein_q(6, 10)
    for k, pairs in MONOMIALS.items():
        mons = {(a, b): _mul(power(e4, a), power(e6, b)) for a, b in pairs}
        assert e4_e6_monomials(k, 10) == mons
        for _ in range(20):
            coeffs = {
                ab: Fraction(rng.randrange(-99, 100), rng.randrange(1, 30))
                for ab in mons
            }
            f = tuple(
                sum(c * mons[ab][n] for ab, c in coeffs.items()) for n in range(11)
            )
            got = express_in_e4_e6(k, f)
            assert got == {ab: c for ab, c in coeffs.items() if c != 0}, k


def test_express_rejects_non_span():
    e4 = eisenstein_q(4, 8)
    perturbed = tuple(c + (1 if n == 5 else 0) for n, c in enumerate(e4))
    with pytest.raises(ValueError, match="residual mismatch at q\\^5"):
        express_in_e4_e6(4, perturbed)


def test_express_rejects_bad_weight_and_precision():
    with pytest.raises(ValueError, match="no monomials"):
        express_in_e4_e6(5, (Fraction(1), Fraction(0)))
    # weight-2 space is empty: only the zero series passes
    assert express_in_e4_e6(2, (Fraction(0), Fraction(0))) == {}
    with pytest.raises(ValueError, match="no monomials"):
        express_in_e4_e6(2, (Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="need at least 1"):
        express_in_e4_e6(12, (Fraction(1),))  # needs 2 coefficients
    # a series has a constant term, in every weight
    for k in (2, 4, 5):
        with pytest.raises(ValueError, match="constant coefficient"):
            express_in_e4_e6(k, ())
    with pytest.raises(ValueError, match="constant coefficient"):
        e4_e6_monomials(4, -1)


def test_elliptic_weight12_congruence_mod_691():
    # classical pairing of the weight-12 Eisenstein and cusp coefficients
    prec = 20
    g12 = tuple(-bernoulli(12) / 24 * c for c in eisenstein_q(12, prec))
    d = delta_q(prec)
    for n in range(prec + 1):
        assert residue(g12[n] - d[n], 691) == 0
    assert g12[0] == Fraction(691, 65520)
    for n in range(1, prec + 1):
        assert g12[n] == sigma(11, n)
