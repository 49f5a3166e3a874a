"""Expansion arithmetic: ring oracle, Siegel restriction, theta, congruence."""

from fractions import Fraction

import pytest

from qmf.exactnum import kronecker
from qmf.fexp import FourierExpansion, cong_mod
from qmf.forms import eisenstein_h, g_h, x10, x12
from qmf.quatlat import QuatCoord
from qmf.series import eisenstein_q
from qmf.tmat import TMatrix, ZERO_TMATRIX, enumerate_psd, parse_tmatrix

T0 = parse_tmatrix("1,1,1,1,0,0")


def brute_mul(f, g, N):
    """Reference product: direct sum over psd decompositions T = T1 + T2."""
    box = enumerate_psd(N)
    out = {}
    for T in box:
        acc = Fraction(0)
        for T1 in box:
            if T1.n > T.n or T1.m > T.m:
                continue
            T2 = TMatrix(
                T.n - T1.n,
                T.m - T1.m,
                QuatCoord(*(a - b for a, b in zip(T.t, T1.t))),
            )
            if not T2.is_psd():
                continue
            a = f.coeff(T1)
            if a:
                b = g.coeff(T2)
                if b:
                    acc += a * b
        if acc:
            out[T] = acc
    return FourierExpansion(f.weight + g.weight, N, out)


def restrict(f, N):
    return FourierExpansion(
        f.weight,
        N,
        {T: c for T, c in f.items() if T.n <= N and T.m <= N},
    )


def test_constant_and_zero():
    z = FourierExpansion.zero(10, 2)
    assert z.coeff(T0) == 0
    assert z.support() == []
    one = FourierExpansion.constant(1, 2)
    assert one.coeff(ZERO_TMATRIX) == 1
    assert one.weight == 0
    assert one.siegel_phi().coeffs == (1, 0, 0)


def test_add_scale_algebra():
    e4 = eisenstein_h(4, 2)
    e10 = eisenstein_h(10, 2)
    X = x10(2)
    assert (X + e10) - e10 == X
    assert X.scale(3).coeff(T0) == 3
    assert (X.scale(2) + X) == X.scale(3)
    assert X - X == FourierExpansion.zero(10, 2)
    with pytest.raises(ValueError):
        e4 + e10
    # scalar multiplication via operators
    assert 2 * X == X.scale(2) == X * 2


def test_add_truncates_to_smaller_box():
    a = eisenstein_h(4, 3)
    b = eisenstein_h(4, 2)
    s = a + b
    assert s.N == 2
    assert s == b.scale(2)


def test_mul_against_brute_force_oracle():
    e4 = eisenstein_h(4, 2)
    e6 = eisenstein_h(6, 2)
    assert e4 * e6 == brute_mul(e4, e6, 2)
    X = x10(2)
    assert e4 * X == brute_mul(e4, X, 2)


def test_mul_algebra():
    e4 = eisenstein_h(4, 2)
    e6 = eisenstein_h(6, 2)
    e10 = eisenstein_h(10, 2)
    assert e4 * e6 == e6 * e4
    assert (e4 * e4) * e6 == e4 * (e4 * e6)
    assert (x10(2) + e10) * e4 == x10(2) * e4 + e10 * e4
    one = FourierExpansion.constant(1, 2)
    assert one * e4 == e4
    assert (e4 * e6).weight == 10


def test_mul_truncation_consistency():
    # multiplying deeper expansions then restricting equals shallow product
    a3 = eisenstein_h(4, 3) * eisenstein_h(6, 3)
    a2 = eisenstein_h(4, 2) * eisenstein_h(6, 2)
    assert restrict(a3, 2) == a2
    # mixed depths truncate to the smaller box
    mixed = eisenstein_h(4, 3) * eisenstein_h(6, 2)
    assert mixed == a2


def test_siegel_phi_restriction():
    e4 = eisenstein_h(4, 3)
    phi = e4.siegel_phi()
    assert phi.weight == 4
    assert phi.coeffs == tuple(
        e4.coeff(TMatrix(n, 0, QuatCoord(0, 0, 0, 0))) for n in range(4)
    )
    assert phi == eisenstein_q(4, 3)


def test_siegel_phi_is_ring_map():
    e4 = eisenstein_h(4, 3)
    e6 = eisenstein_h(6, 3)
    assert (e4 * e6).siegel_phi() == e4.siegel_phi() * e6.siegel_phi()
    assert (e4 + e4).siegel_phi() == e4.siegel_phi() + e4.siegel_phi()


def test_theta():
    g4 = g_h(4, 2)
    th = g4.theta()
    assert th.weight == 4
    assert th.coeff(T0) == 1
    assert th.coeff(parse_tmatrix("1,1,0,0,0,0")) == 6
    assert th.coeff(parse_tmatrix("1,2,1,1,0,0")) == 12
    # rank <= 1 coefficients are killed
    assert all(T.two_det() > 0 for T in th.support())
    assert th.coeff(parse_tmatrix("1,0,0,0,0,0")) == 0


def test_theta_chi():
    X = x12(2)
    th = X.theta_chi(-23)
    for T in enumerate_psd(2):
        td = T.two_det()
        assert th.coeff(T) == X.coeff(T) * td * kronecker(-23, td)
    # two_det values with kronecker 0 or sign -1 behave accordingly
    assert kronecker(-23, 5) == -1
    T5 = parse_tmatrix("1,3,1,1,0,0")
    X3 = x12(3)
    assert X3.theta_chi(-23).coeff(T5) == -5 * X3.coeff(T5)


def test_cong_mod_holds_and_fails():
    X = x10(2)
    assert cong_mod(X, X, 5).status == "holds"
    bumped = X + FourierExpansion(10, 2, {T0: Fraction(5)})
    assert cong_mod(X, bumped, 5).status == "holds"
    broken = X + FourierExpansion(10, 2, {T0: Fraction(3)})
    check = cong_mod(X, broken, 5)
    assert check.status == "fails"
    assert check.witness == T0
    assert not check.ok


def test_cong_mod_witness_order():
    # the witness is the first violation in box enumeration order
    bad = TMatrix(0, 1, QuatCoord(0, 0, 0, 0))
    broken = x10(2) + FourierExpansion(
        10, 2, {bad: Fraction(1), T0: Fraction(1)}
    )
    check = cong_mod(x10(2), broken, 7)
    assert check.witness == bad
    assert check.checked == 2  # (0,0) passed, (0,1) failed


def test_cong_mod_not_p_integral():
    f = FourierExpansion(10, 1, {T0: Fraction(1, 17)})
    z = FourierExpansion.zero(10, 1)
    check = cong_mod(f, z, 17)
    assert check.status == "not-p-integral"
    assert check.witness == T0
    # the weight-10 Eisenstein series genuinely has 17 in denominators
    e10 = eisenstein_h(10, 1)
    assert any(c.denominator % 17 == 0 for _, c in e10.items())
    assert cong_mod(e10, e10.scale(1), 17).status == "not-p-integral"


def test_cong_mod_cross_weight_allowed():
    th = g_h(4, 2).theta()
    assert th.weight == 4
    assert cong_mod(th, x10(2), 5).ok  # weights 4 vs 10


def test_cong_mod_errors():
    X = x10(2)
    with pytest.raises(ValueError):
        cong_mod(X, x10(3), 5)
    with pytest.raises(ValueError):
        cong_mod(X, X, 6)
