"""Named forms: frozen coefficient tables, Maass structure, cusp properties."""

import hashlib
from fractions import Fraction

import pytest

from box_oracle import (
    RING,
    RING_MEMBERS,
    constant,
    monomial_h,
    mul,
    ring_x14,
    scale,
    siegel_phi,
    whole_box,
)
from qmf.exactnum import bernoulli, divisors, sigma
from qmf.fexp import FourierExpansion
from qmf.forms import (
    MaassTable,
    _product_row,
    build_form,
    eisenstein_table,
    form_table,
    g_constant,
    maass_lift,
    x14_closed,
)
from qmf.series import QSeries, eisenstein_q, tau_star
from qmf.tmat import ZERO_TMATRIX, parse_tmatrix

T0 = parse_tmatrix("1,1,1,1,0,0")
I2 = parse_tmatrix("1,1,0,0,0,0")
T3 = parse_tmatrix("1,2,1,1,0,0")  # two_det = 3
ROW = (T0, I2, T3)


def E(k, N):
    return build_form(f"E{k}H", N)


def G(k, N):
    return build_form(f"G{k}H", N)


def test_eisenstein_h_frozen():
    e4 = E(4, 2)
    assert e4.coeff(ZERO_TMATRIX) == 1
    assert e4.coeff(parse_tmatrix("1,0,0,0,0,0")) == 240
    assert e4.coeff(parse_tmatrix("2,0,0,0,0,0")) == 2160  # (1+2^3)*240
    assert [e4.coeff(T) for T in ROW] == [1920, 5760, 7680]
    e6 = E(6, 2)
    assert e6.coeff(parse_tmatrix("1,0,0,0,0,0")) == -504
    assert [e6.coeff(T) for T in ROW] == [8064, 72576, 225792]


def test_eisenstein_h_not_always_integral():
    e10 = E(10, 1)
    assert e10.coeff(T0) == Fraction(8448, 17)


def test_eisenstein_h_invalid_weight():
    for k in (2, 3, 7):
        with pytest.raises(ValueError):
            E(k, 1)
        with pytest.raises(ValueError):
            eisenstein_table(k, 2)


def test_g_constant_frozen():
    assert g_constant(4) == Fraction(1, 1920)
    assert g_constant(10) == Fraction(17, 8448)
    assert g_constant(14) == Fraction(7 * 691, 2688)
    for k in range(4, 22, 2):
        expected = (
            -((2 ** (k - 2) - 1)) * bernoulli(k) * bernoulli(k - 2)
            / (4 * k * (k - 2))
        )
        assert g_constant(k) == expected


def test_g_h_is_scaled_eisenstein():
    for k in (4, 10):
        assert G(k, 2) == scale(E(k, 2), g_constant(k))


def test_g_h_frozen_rows():
    assert [G(10, 2).coeff(T) for T in ROW] == [1, 129, 2188]
    assert [G(14, 2).coeff(T) for T in ROW] == [1, 2049, 177148]
    assert [G(4, 2).coeff(T) for T in ROW] == [1, 3, 4]
    assert [G(6, 2).coeff(T) for T in ROW] == [1, 9, 28]
    assert G(10, 2).coeff(ZERO_TMATRIX) == g_constant(10)


def test_g_h_primitive_coefficients_are_divisor_sums():
    # at nonsingular content-1 indices the coefficient is the twisted
    # divisor power sum; singular indices carry a different value
    for k in (4, 6, 10, 14):
        g = G(k, 2)
        for T in whole_box(2):
            if T == ZERO_TMATRIX or T.two_det() == 0 or T.epsilon() != 1:
                continue
            ell = T.two_det()
            expected = sigma(k - 3, ell) - 2 ** (k - 2) * sigma(
                k - 3, Fraction(ell, 4)
            )
            assert g.coeff(T) == expected


def test_maass_lift_reproduces_eisenstein():
    # the same singular series, rebuilt here from first principles
    N = 2
    for k in (4, 6, 10):
        c0 = Fraction(-2 * k) / bernoulli(k)
        cpos = Fraction(-4 * k * (k - 2)) / (
            (2 ** (k - 2) - 1) * bernoulli(k) * bernoulli(k - 2)
        )

        def astar(ell, c0=c0, cpos=cpos, k=k):
            if ell == 0:
                return c0
            return cpos * (
                sigma(k - 3, ell) - 2 ** (k - 2) * sigma(k - 3, Fraction(ell, 4))
            )

        R = tuple(astar(ell) for ell in range(2 * N * N + 1))
        assert maass_lift(MaassTable(k, Fraction(1), R), N) == E(k, N)


def test_maass_lift_tau_star_is_x14():
    # the weight-14 cusp form is the lift of the twisted tau series
    N = 2
    R = tuple(Fraction(tau_star(ell)) for ell in range(2 * N * N + 1))
    table = MaassTable(14, Fraction(0), R)
    assert maass_lift(table, N) == ring_x14(N)


def test_maass_lift_rejects_short_table():
    with pytest.raises(ValueError):
        maass_lift(eisenstein_table(4, 7), 2)


def test_table_coeff_raises_past_its_bound():
    table = form_table("X10", 7)
    assert table.coeff(parse_tmatrix("2,2,1,1,0,0")) == table.R[7]  # two_det 7
    with pytest.raises(ValueError):
        table.coeff(parse_tmatrix("2,2,0,0,0,0"))  # two_det 8
    with pytest.raises(ValueError):
        table.class_coeff((8, 2))
    # rank <= 1 indices need only R(0), at any depth
    assert table.coeff(parse_tmatrix("9,0,0,0,0,0")) == 0


def test_e4_e6_tables_integral():
    # chi = G - p * P(E4H, E6H) is p-integral once P is, because of this;
    # build_chi's certificate rests on it
    for k in (4, 6):
        table = eisenstein_table(k, 400)
        assert all(table.class_coeff((0, j)).denominator == 1 for j in range(201))
        R = table.R
        assert R[0].denominator == 1 and R[1].denominator == 1
        twist = 2 ** (k - 2)
        for ell in range(1, 401):
            singular = sigma(k - 3, ell) - twist * sigma(k - 3, Fraction(ell, 4))
            assert R[ell] == R[1] * singular


def test_x14_table_is_tau_star():
    R = form_table("X14", 200).R
    assert R == tuple(tau_star(ell) for ell in range(201))


@pytest.mark.parametrize(
    "name, N", [("X10", 3), ("X12", 3), ("X14", 3), ("X10", 4), ("X14", 4)]
)
def test_build_form_matches_box_product(name, N):
    assert build_form(name, N) == RING[name](N)


TABLE_ARITHMETIC = ("__add__", "__sub__", "__mul__", "scale")


def test_named_forms_use_no_box_product():
    # the library cannot multiply expansions: named forms are table lifts
    assert [m for m in RING_MEMBERS if hasattr(FourierExpansion, m)] == []
    # nor tables: each is a Maass-space form's, and sums are built from rows
    assert [m for m in TABLE_ARITHMETIC if hasattr(MaassTable, m)] == []
    for name in ("X10", "X12", "X14", "E4H", "G10H", "G16H"):
        assert build_form(name, 2).coeff(T0) == form_table(name, 2).coeff(T0)


def test_table_product_matches_box_product_restriction():
    # the first Fourier-Jacobi row of a product that is not a Maass lift
    # (E4^3 and E6^2 lie outside the weight-12 Maass space) is still the
    # product's, as both factors, E8 = E4^2 and E4 or E6 and E6, lie in it
    N = 3
    e = {k: eisenstein_table(k, 2 * N * N) for k in (4, 6, 8)}
    rows = {(3, 0): _product_row(e[8], e[4]), (0, 2): _product_row(e[6], e[6])}
    for (a, b), row in rows.items():
        box = monomial_h(a, b, N)
        for T in whole_box(N):
            if T.n == 1:
                assert box.coeff(T) == row[T.two_det()], (a, b, T)


def restriction(table, J):
    """The Siegel restriction of table's lift, a((j, 0, 0)) for j <= J."""
    return QSeries(table.weight, tuple(table.class_coeff((0, j)) for j in range(J + 1)))


def test_table_restriction_is_the_lifts():
    # a table stores no restriction: it is read from the lift, and is the
    # elliptic Eisenstein series for E<k>H and, for a product lying in the
    # Maass space, the product of the factors' restrictions
    e = {k: eisenstein_table(k, 200) for k in (4, 6, 8, 10, 12)}
    for k, table in e.items():
        assert restriction(table, 100) == eisenstein_q(k, 100)
    x10 = form_table("X10", 200)
    assert restriction(x10, 100).is_zero()
    for f, g in ((e[4], e[6]), (e[4], e[4]), (e[4], x10)):
        fg = MaassTable(f.weight + g.weight, f.const * g.const, _product_row(f, g))
        assert restriction(fg, 100) == restriction(f, 100) * restriction(g, 100)
    # E8 spans the weight-8 forms, so X12 may read E4^3 as E8 E4
    e4 = eisenstein_table(4, 400)
    assert _product_row(e4, e4) == eisenstein_table(8, 400).R


# sha256 of repr(form_table(name, 400).R) for the rows past the l <= 32 the
# box oracle reaches, recorded from tables that multiplied stored q-series
# restrictions, so they check the restrictions read from the lifts
ROW_SHA256 = {
    "X10": "d3bd8f96fb177028e45a4998c149a39486910290920715889d25de2415f47b4f",
    "X12": "2d1fb007ec9f906dc4ec1b15ced1b2dfac2eb2b1eace3f99237b859910cacee4",
    "X14": "dcaf719531e0c1dc625588e870f3bc524ab6e806f754d3666f97fd6efc8e650f",
    "E4H": "3401cbb6c0dc9450c9b45ae219e37d4e2533dd599b339628670a262a9fc1df89",
    "E10H": "b35389090b0b939d699456338f607ad33c3a30b94d64575a4980e7edd7d88bc9",
    "G12H": "73ffc371fd005e367e8287ae723751bfdc1450eed4d3912e36b95828f1575d6d",
}


def test_rows_to_400_frozen():
    for name, want in ROW_SHA256.items():
        R = form_table(name, 400).R
        assert len(R) == 401, name
        assert hashlib.sha256(repr(R).encode()).hexdigest() == want, name


def test_cusp_forms_normalized_cuspidal_integral():
    for name in ("X10", "X12", "X14"):
        f = build_form(name, 3)
        assert f.coeff(T0) == 1
        assert f.coeff(ZERO_TMATRIX) == 0
        # cuspidal: support is rank 2 only
        assert all(T.rank() == 2 for T in f.support())
        # integral: every coefficient is an integer
        assert all(c.denominator == 1 for _, c in f.items())
        assert siegel_phi(f).is_zero()


def test_cusp_form_frozen_rows():
    x10, x12, x14 = (build_form(name, 2) for name in ("X10", "X12", "X14"))
    assert [x10.coeff(T) for T in ROW] == [1, -24, 12]
    assert [x14.coeff(T) for T in ROW] == [1, -24, 252]
    assert [x12.coeff(T) for T in ROW] == [1, 48, -156]
    assert x12.coeff(parse_tmatrix("2,2,0,0,0,0")) == 110592


def test_x14_closed_form():
    assert x14_closed(parse_tmatrix("1,3,1,1,0,0")) == 4830
    assert x14_closed(T0) == 1
    assert x14_closed(parse_tmatrix("2,2,2,2,0,0")) == tau_star(4) + 2**13 * tau_star(1)
    with pytest.raises(ValueError):
        x14_closed(parse_tmatrix("1,0,0,0,0,0"))
    with pytest.raises(ValueError):
        x14_closed(ZERO_TMATRIX)


def test_x14_ring_equals_closed_form_depth2():
    X = ring_x14(2)
    for T in whole_box(2):
        if T.two_det() > 0:
            assert X.coeff(T) == x14_closed(T)


def test_maass_dependence_on_content_and_det():
    # coefficients depend on T only through (eps, two_det)
    for name in ("E4H", "E6H", "E10H", "E12H", "X10", "X12", "X14"):
        f = build_form(name, 3)
        seen = {}
        for T in whole_box(3):
            if T == ZERO_TMATRIX:
                continue
            key = (T.epsilon(), T.two_det())
            val = f.coeff(T)
            if key in seen:
                assert seen[key] == val, (name, key)
            else:
                seen[key] = val


@pytest.mark.parametrize(
    "name", ("X10", "X12", "X14", "E4H", "E6H", "G10H", "G12H")
)
def test_memoized_coeff_equals_divisor_sum(name):
    # coeff at every index of the depth-4 box, and class_coeff at its class
    # key, return the divisor sum evaluated afresh at that index
    table = form_table(name, 32)
    k1 = table.weight - 1
    for T in whole_box(4):
        if T == ZERO_TMATRIX:
            expected = table.const
        else:
            td = T.two_det()
            expected = sum(
                d**k1 * table.R[td // (d * d)] for d in divisors(T.epsilon())
            )
        assert table.coeff(T) == expected, (name, T)
        assert table.class_coeff(T.class_key()) == expected, (name, T)


def test_andrianov_divisor_relation():
    # a(T) = sum_{d | eps} d^(k-1) A(two_det/d^2) with A read off content-1
    # indices; values of A beyond the primitive range of the box are skipped
    N = 3
    for name, k in (("X10", 10), ("X12", 12), ("X14", 14), ("E4H", 4)):
        f = build_form(name, N)
        primitive = {}
        for T in whole_box(N):
            if T != ZERO_TMATRIX and T.epsilon() == 1:
                primitive.setdefault(T.two_det(), f.coeff(T))
        checked = skipped = 0
        for T in whole_box(N):
            if T == ZERO_TMATRIX:
                continue
            eps = T.epsilon()
            td = T.two_det()
            needed = [td // (d * d) for d in divisors(eps)]
            if not all(ell in primitive for ell in needed):
                # only deep two_det values lack a primitive representative
                assert max(needed) > 2 * N
                skipped += 1
                continue
            expected = sum(
                d ** (k - 1) * primitive[td // (d * d)] for d in divisors(eps)
            )
            assert f.coeff(T) == expected
            checked += 1
        assert checked > 1000
        assert skipped < 20


def test_monomial_h():
    assert monomial_h(0, 0, 2) == constant(1, 2)
    assert monomial_h(1, 0, 2) == E(4, 2)
    assert monomial_h(0, 1, 2) == E(6, 2)
    assert monomial_h(0, 2, 2) == mul(E(6, 2), E(6, 2))
    assert monomial_h(1, 1, 2) == mul(E(4, 2), E(6, 2))
    assert monomial_h(2, 0, 2).weight == 8
    with pytest.raises(ValueError):
        monomial_h(-1, 0, 2)


def test_x14_is_e4_times_x10():
    assert build_form("X14", 2) == mul(E(4, 2), build_form("X10", 2))


def test_build_form_registry():
    assert build_form("X10", 1) == maass_lift(form_table("X10", 2), 1)
    assert build_form("x12", 1) == build_form("X12", 1)
    assert build_form("E4H", 1) == maass_lift(eisenstein_table(4, 2), 1)
    assert build_form("g10h", 1) == G(10, 1)
    assert build_form("G20H", 1).weight == 20
    for bad in ("X11", "E4", "H4E", "G0H", "", "X14Y"):
        with pytest.raises(ValueError):
            build_form(bad, 1)


def test_siegel_phi_of_eisenstein_matches_elliptic():
    for k in (4, 6, 10, 12):
        assert siegel_phi(E(k, 3)) == eisenstein_q(k, 3)
