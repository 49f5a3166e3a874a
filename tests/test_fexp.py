"""Expansion arithmetic: ring oracle, Siegel restriction, congruence sweep."""

from fractions import Fraction

import pytest

from qmf.fexp import FourierExpansion, cong_mod
from qmf.forms import build_form, form_table
from qmf.quatlat import QuatCoord
from qmf.series import eisenstein_q
from qmf.tmat import TMatrix, ZERO_TMATRIX, enumerate_psd, parse_tmatrix

T0 = parse_tmatrix("1,1,1,1,0,0")


def E(k, N):
    return build_form(f"E{k}H", N)


def x10(N):
    return build_form("X10", N)


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
    e4 = E(4, 2)
    e10 = E(10, 2)
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
    a = E(4, 3)
    b = E(4, 2)
    s = a + b
    assert s.N == 2
    assert s == b.scale(2)


def test_mul_against_brute_force_oracle():
    e4 = E(4, 2)
    e6 = E(6, 2)
    assert e4 * e6 == brute_mul(e4, e6, 2)
    X = x10(2)
    assert e4 * X == brute_mul(e4, X, 2)


def test_mul_algebra():
    e4 = E(4, 2)
    e6 = E(6, 2)
    e10 = E(10, 2)
    assert e4 * e6 == e6 * e4
    assert (e4 * e4) * e6 == e4 * (e4 * e6)
    assert (x10(2) + e10) * e4 == x10(2) * e4 + e10 * e4
    one = FourierExpansion.constant(1, 2)
    assert one * e4 == e4
    assert (e4 * e6).weight == 10


def test_mul_truncation_consistency():
    # multiplying deeper expansions then restricting equals shallow product
    a3 = E(4, 3) * E(6, 3)
    a2 = E(4, 2) * E(6, 2)
    assert restrict(a3, 2) == a2
    # mixed depths truncate to the smaller box
    mixed = E(4, 3) * E(6, 2)
    assert mixed == a2


def test_siegel_phi_restriction():
    e4 = E(4, 3)
    phi = e4.siegel_phi()
    assert phi.weight == 4
    assert phi.coeffs == tuple(
        e4.coeff(TMatrix(n, 0, QuatCoord(0, 0, 0, 0))) for n in range(4)
    )
    assert phi == eisenstein_q(4, 3)


def test_siegel_phi_is_ring_map():
    e4 = E(4, 3)
    e6 = E(6, 3)
    assert (e4 * e6).siegel_phi() == e4.siegel_phi() * e6.siegel_phi()
    assert (e4 + e4).siegel_phi() == e4.siegel_phi() + e4.siegel_phi()


def test_cong_mod_holds_and_fails():
    X = x10(2)
    assert cong_mod(X.coeff, X.coeff, 5, 2).status == "holds"
    bumped = X + FourierExpansion(10, 2, {T0: Fraction(5)})
    assert cong_mod(X.coeff, bumped.coeff, 5, 2).status == "holds"
    broken = X + FourierExpansion(10, 2, {T0: Fraction(3)})
    check = cong_mod(X.coeff, broken.coeff, 5, 2)
    assert check.status == "fails"
    assert check.witness == T0
    assert not check.ok


def test_cong_mod_witness_order():
    # the witness is the first violation in box enumeration order
    bad = TMatrix(0, 1, QuatCoord(0, 0, 0, 0))
    broken = x10(2) + FourierExpansion(
        10, 2, {bad: Fraction(1), T0: Fraction(1)}
    )
    check = cong_mod(x10(2).coeff, broken.coeff, 7, 2)
    assert check.witness == bad
    assert check.checked == 2  # (0,0) passed, (0,1) failed


def test_cong_mod_not_p_integral():
    f = FourierExpansion(10, 1, {T0: Fraction(1, 17)})
    z = FourierExpansion.zero(10, 1)
    check = cong_mod(f.coeff, z.coeff, 17, 1)
    assert check.status == "not-p-integral"
    assert check.witness == T0
    # the weight-10 Eisenstein series genuinely has 17 in denominators
    e10 = form_table("E10H", 2)
    assert any(c.denominator % 17 == 0 for c in e10.R)
    assert cong_mod(e10.coeff, e10.coeff, 17, 1).status == "not-p-integral"


def test_cong_mod_cross_weight_allowed():
    # a weight-4 theta image against a weight-10 form, a lifted box against
    # a table: cong_mod sees only the two coefficient functions
    g4 = build_form("G4H", 2)
    x10_table = form_table("X10", 8)
    assert cong_mod(lambda T: T.two_det() * g4.coeff(T), x10_table.coeff, 5, 2).ok


def test_cong_mod_errors():
    X = x10(2)
    with pytest.raises(ValueError):  # modulus not prime
        cong_mod(X.coeff, X.coeff, 6, 2)
    # a source raises where it cannot answer: a box beyond its depth, a
    # table beyond its bound
    with pytest.raises(ValueError):
        cong_mod(X.coeff, x10(3).coeff, 5, 3)
    with pytest.raises(ValueError):
        cong_mod(form_table("X10", 8).coeff, x10(3).coeff, 5, 3)


def test_coeff_outside_box_raises():
    X = x10(2)
    corner = parse_tmatrix("2,2,0,0,0,0")
    assert X.coeff(corner) == form_table("X10", 8).coeff(corner)
    assert X.coeff(parse_tmatrix("1,1,2,2,0,0")) == 0  # in the box, not psd
    for text in ("3,0,0,0,0,0", "1,3,1,1,0,0"):
        with pytest.raises(ValueError):
            X.coeff(parse_tmatrix(text))
