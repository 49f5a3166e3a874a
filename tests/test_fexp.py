"""Expansions: the box-ring oracle, Siegel restriction, and the congruence
sweep congr.cong_mod runs over a box."""

from fractions import Fraction

import pytest

from box_oracle import (
    ZERO_INDEX,
    add,
    constant,
    eisenstein_q,
    mul,
    scale,
    siegel_phi,
    sub,
    whole_box,
    zero,
)
from box_oracle import cong_mod as oracle_cong_mod
from qmf.congr import cong_mod
from qmf.fexp import FourierExpansion
from qmf.forms import MaassTable, _mul, build_form, form_table
from qmf.quatlat import QuatCoord
from qmf.tmat import TMatrix, class_counts, parse_tmatrix

T0 = parse_tmatrix("1,1,1,1,0,0")


def E(k, N):
    return build_form(f"E{k}H", N)


def x10(N):
    return build_form("X10", N)


def brute_mul(f, g, N):
    """Reference product: direct sum over psd decompositions T = T1 + T2."""
    box = whole_box(N)
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
    z = zero(10, 2)
    assert z.coeff(T0) == 0
    assert z.support() == []
    one = constant(1, 2)
    assert one.coeff(ZERO_INDEX) == 1
    assert one.weight == 0
    assert siegel_phi(one) == (1, 0, 0)


def test_add_scale_algebra():
    e4 = E(4, 2)
    e10 = E(10, 2)
    X = x10(2)
    assert sub(add(X, e10), e10) == X
    assert scale(X, 3).coeff(T0) == 3
    assert add(scale(X, 2), X) == scale(X, 3)
    assert sub(X, X) == zero(10, 2)
    with pytest.raises(ValueError):
        add(e4, e10)
    assert scale(X, 2) == add(X, X) == scale(X, Fraction(2))


def test_add_truncates_to_smaller_box():
    a = E(4, 3)
    b = E(4, 2)
    s = add(a, b)
    assert s.N == 2
    assert s == scale(b, 2)


def test_mul_against_brute_force_oracle():
    e4 = E(4, 2)
    e6 = E(6, 2)
    assert mul(e4, e6) == brute_mul(e4, e6, 2)
    X = x10(2)
    assert mul(e4, X) == brute_mul(e4, X, 2)


def test_mul_algebra():
    e4 = E(4, 2)
    e6 = E(6, 2)
    e10 = E(10, 2)
    assert mul(e4, e6) == mul(e6, e4)
    assert mul(mul(e4, e4), e6) == mul(e4, mul(e4, e6))
    assert mul(add(x10(2), e10), e4) == add(mul(x10(2), e4), mul(e10, e4))
    one = constant(1, 2)
    assert mul(one, e4) == e4
    assert mul(e4, e6).weight == 10


def test_mul_truncation_consistency():
    # multiplying deeper expansions then restricting equals shallow product
    a3 = mul(E(4, 3), E(6, 3))
    a2 = mul(E(4, 2), E(6, 2))
    assert restrict(a3, 2) == a2
    # mixed depths truncate to the smaller box
    mixed = mul(E(4, 3), E(6, 2))
    assert mixed == a2


def test_siegel_phi_restriction():
    e4 = E(4, 3)
    phi = siegel_phi(e4)
    assert phi == tuple(
        e4.coeff(TMatrix(n, 0, QuatCoord(0, 0, 0, 0))) for n in range(4)
    )
    assert phi == eisenstein_q(4, 3)


def test_siegel_phi_is_ring_map():
    e4 = E(4, 3)
    e6 = E(6, 3)
    assert siegel_phi(mul(e4, e6)) == _mul(siegel_phi(e4), siegel_phi(e6))
    assert siegel_phi(add(e4, e4)) == tuple(2 * c for c in siegel_phi(e4))


def bump_rows(table, rows):
    """A copy of table with R[l] += delta for each l: delta in rows."""
    R = list(table.R)
    for l, delta in rows.items():
        R[l] += delta
    return MaassTable(table.weight, table.const, tuple(R))


def test_cong_mod_holds_and_fails():
    X = form_table("X10", 8)
    cases = ((X, "holds"), (bump_rows(X, {1: 5}), "holds"), (bump_rows(X, {1: 3}), "fails"))
    for other, status in cases:
        check = cong_mod(X.class_coeff, other.class_coeff, 5, 2)
        assert check.status == status and check.ok == (status == "holds")
        # the verdict of the index-by-index sweep, its witness and count
        assert check.to_json() == oracle_cong_mod(X.coeff, other.coeff, 5, 2).to_json()
    assert check.witnesses[0]["detail"] == "fails"
    assert parse_tmatrix(check.witnesses[0]["T"]).two_det() == 1


def test_cong_mod_witness_order():
    # the witness is the first violation in box enumeration order: R[0]
    # moves every rank-1 coefficient, and the second index is (0, 1, 0)
    X = form_table("X10", 8)
    broken = bump_rows(X, {0: 1, 1: 1})
    check = cong_mod(X.class_coeff, broken.class_coeff, 7, 2)
    assert check.to_json() == {
        "theorem": "congruence",
        "params": {"p": 7, "depth": 2},
        "status": "fails",
        "witnesses": [{"T": "0,1,0,0,0,0", "detail": "fails"}],
        "checked": 2,  # (0,0) passed, (0,1) failed
    }
    assert check.to_json() == oracle_cong_mod(X.coeff, broken.coeff, 7, 2).to_json()


def test_cong_mod_holds_counts_every_index():
    X = form_table("X14", 32)
    for N in range(5):
        box_size = sum(class_counts(N).values())
        assert cong_mod(X.class_coeff, X.class_coeff, 7, N).checked == box_size


def test_cong_mod_not_p_integral():
    z = MaassTable(10, Fraction(0), (Fraction(0),) * 3)
    f = bump_rows(z, {1: Fraction(1, 17)})
    check = cong_mod(f.class_coeff, z.class_coeff, 17, 1)
    assert not check.ok
    # the first two_det 1 index
    assert check.witnesses == [{"T": "1,1,-1,-1,0,0", "detail": "not-p-integral"}]
    assert check.to_json() == oracle_cong_mod(f.coeff, z.coeff, 17, 1).to_json()
    # the weight-10 Eisenstein series genuinely has 17 in denominators
    e10 = form_table("E10H", 2)
    assert any(c.denominator % 17 == 0 for c in e10.R)
    check = cong_mod(e10.class_coeff, e10.class_coeff, 17, 1)
    assert check.witnesses[0]["detail"] == "not-p-integral"
    assert check.to_json() == oracle_cong_mod(e10.coeff, e10.coeff, 17, 1).to_json()


def test_cong_mod_cross_weight_allowed():
    # a weight-4 theta image against a weight-10 form: cong_mod sees only
    # the two class functions
    g4 = form_table("G4H", 8).class_coeff
    x10_table = form_table("X10", 8)
    assert cong_mod(lambda key: key[0] * g4(key), x10_table.class_coeff, 5, 2).ok


def test_cong_mod_errors():
    X = form_table("X10", 8)
    with pytest.raises(ValueError):  # modulus not prime
        cong_mod(X.class_coeff, X.class_coeff, 6, 2)
    # a source raises where it cannot answer: a table beyond its bound
    short = MaassTable(X.weight, X.const, X.R[:9])
    with pytest.raises(ValueError):
        cong_mod(short.class_coeff, form_table("X10", 18).class_coeff, 5, 3)


def test_coeff_outside_box_raises():
    X = x10(2)
    corner = parse_tmatrix("2,2,0,0,0,0")
    assert X.coeff(corner) == form_table("X10", 8).coeff(corner)
    assert X.coeff(parse_tmatrix("1,1,2,2,0,0")) == 0  # in the box, not psd
    for text in ("3,0,0,0,0,0", "1,3,1,1,0,0"):
        with pytest.raises(ValueError):
            X.coeff(parse_tmatrix(text))
