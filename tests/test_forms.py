"""Named forms: frozen coefficient tables, Maass structure, cusp properties."""

import hashlib
import random
import re
from fractions import Fraction

import pytest

from box_oracle import (
    RING,
    RING_MEMBERS,
    ZERO_INDEX,
    constant,
    cusp_rows,
    eisenstein_q,
    lift,
    monomial_h,
    mul,
    naive_mul,
    paper_rows,
    product_row,
    ring_x14,
    scale,
    siegel_phi,
    sigma,
    tau_star,
    whole_box,
)
from qmf import forms
from qmf.exactnum import bernoulli, divisors
from qmf.fexp import FourierExpansion
from qmf.forms import (
    MaassTable,
    _mul,
    build_form,
    form_table,
    g_constant,
    x14_closed,
)
from qmf.tmat import class_counts, parse_tmatrix

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
    assert e4.coeff(ZERO_INDEX) == 1
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
            form_table(f"E{k}H", 2)


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
    assert G(10, 2).coeff(ZERO_INDEX) == g_constant(10)


def test_g_h_primitive_coefficients_are_divisor_sums():
    # at nonsingular content-1 indices the coefficient is the twisted
    # divisor power sum; singular indices carry a different value
    for k in (4, 6, 10, 14):
        g = G(k, 2)
        for T in whole_box(2):
            if T == ZERO_INDEX or T.two_det() == 0 or T.class_key()[1] != 1:
                continue
            ell = T.two_det()
            quarter = sigma(k - 3, ell // 4) if ell % 4 == 0 else 0
            expected = sigma(k - 3, ell) - 2 ** (k - 2) * quarter
            assert g.coeff(T) == expected


def eisenstein_row(k, L):
    """The row of the weight-k Eisenstein series to l = L and the scalar cpos
    with R(l) = cpos * S(l) for l > 0, rebuilt from first principles: the
    singular series S(l) = sigma_(k-3)(l) - 2^(k-2) sigma_(k-3)(l/4) from the
    oracle's sigma, and R(0) = -2k/B_k."""
    c0 = Fraction(-2 * k) / bernoulli(k)
    cpos = Fraction(-4 * k * (k - 2)) / (
        (2 ** (k - 2) - 1) * bernoulli(k) * bernoulli(k - 2)
    )
    S = [
        sigma(k - 3, ell) - 2 ** (k - 2) * (sigma(k - 3, ell // 4) if ell % 4 == 0 else 0)
        for ell in range(1, L + 1)
    ]
    return (c0,) + tuple(cpos * x for x in S), cpos


def test_maass_lift_reproduces_eisenstein():
    # the same singular series, rebuilt here from first principles
    N = 2
    for k in (4, 6, 10):
        R, _ = eisenstein_row(k, 2 * N * N)
        assert lift(MaassTable(k, Fraction(1), R), N) == E(k, N)


def test_eisenstein_rows_are_the_sigma_formula():
    # E4H..E16H and G4H..G16H at every l <= 2000, constant terms included;
    # every entry is a Fraction, so equal rows have equal reprs
    L = 2000
    for k in range(4, 18, 2):
        R, cpos = eisenstein_row(k, L)
        e, g = form_table(f"E{k}H", L), form_table(f"G{k}H", L)
        assert (e.weight, e.const, g.weight, g.const) == (k, 1, k, 1 / cpos)
        assert e.R[: L + 1] == R
        assert g.R[: L + 1] == tuple(a / cpos for a in R)
        entries = (e.const, g.const) + e.R + g.R
        assert {type(a) for a in entries} == {Fraction}, k


def test_maass_lift_tau_star_is_x14():
    # the weight-14 cusp form is the lift of the twisted tau series
    N = 2
    R = tuple(Fraction(tau_star(ell)) for ell in range(2 * N * N + 1))
    table = MaassTable(14, Fraction(0), R)
    assert lift(table, N) == ring_x14(N)


def short_table(name, L):
    """The named form's table cut to reach exactly l = L, however long the
    shared table is."""
    table = form_table(name, L)
    return MaassTable(table.weight, table.const, table.R[: L + 1])


def test_table_coeff_raises_past_its_bound():
    table = short_table("X10", 7)
    assert table.coeff(parse_tmatrix("2,2,1,1,0,0")) == table.R[7]  # two_det 7
    with pytest.raises(ValueError):
        table.coeff(parse_tmatrix("2,2,0,0,0,0"))  # two_det 8
    with pytest.raises(ValueError):
        table.class_coeff((8, 2))
    # rank <= 1 indices need only R(0), at any depth
    assert table.coeff(parse_tmatrix("9,0,0,0,0,0")) == 0


def test_class_coeff_refuses_keys_of_no_psd_index():
    table = form_table("G10H", 10)
    for key in ((-1, 1), (4, 0), (0, -2)):
        with pytest.raises(ValueError, match=re.escape(f"class {key} ")):
            table.class_coeff(key)
    assert table.class_coeff((0, 0)) == table.const
    assert table.class_coeff((0, 1)) == table.R[0]
    assert table.class_coeff((4, 1)) == table.R[4]


def test_class_coeff_answers_exactly_the_class_keys():
    # content eps needs eps^2 | two_det, as T = eps T' has two_det(T) =
    # eps^2 two_det(T'); the depth-8 box holds every such key with two_det
    # <= 60 and eps <= 5, and class_coeff refuses every other key there
    table = form_table("X10", 60)
    keys = set(class_counts(8))
    answered = set()
    for td in range(61):
        for eps in range(6):
            try:
                table.class_coeff((td, eps))
            except ValueError as exc:
                assert str(exc) == f"class {(td, eps)} is the class key of no psd index"
            else:
                answered.add((td, eps))
    squares = {(td, eps) for td in range(61) for eps in range(1, 6) if td % (eps * eps) == 0}
    assert answered == squares | {(0, 0)}
    assert answered == {(td, eps) for td, eps in keys if td <= 60 and eps <= 5}


def test_e4_e6_tables_integral():
    # chi = G - p * P(E4H, E6H) is p-integral once P is, because of this;
    # ramanujan_verdict's sweep of G in chi's place rests on it
    for k in (4, 6):
        table = form_table(f"E{k}H", 400)
        assert all(table.class_coeff((0, j)).denominator == 1 for j in range(201))
        R = table.R
        assert R[0].denominator == 1 and R[1].denominator == 1
        twist = 2 ** (k - 2)
        for ell in range(1, 401):
            quarter = sigma(k - 3, ell // 4) if ell % 4 == 0 else 0
            singular = sigma(k - 3, ell) - twist * quarter
            assert R[ell] == R[1] * singular


def row_to_400(name):
    """The first 401 entries of the named form's row, read from a table built
    past l = 400, so they are the same whatever was built before."""
    R = form_table(name, 420).R
    assert len(R) > 401, name
    return R[:401]


def test_x14_table_is_tau_star():
    assert row_to_400("X14") == tuple(tau_star(ell) for ell in range(401))


def test_cusp_rows_are_eta_products():
    # the eta products share no code with the tables; each row is a weight
    # k - 2 form on Gamma0(4), so agreement past the Sturm bound (k - 2)/2
    # proves the identity at every l (the forms module docstring)
    for name, row in cusp_rows(400).items():
        assert row_to_400(name) == tuple(row), name


def test_cusp_rows_are_the_papers_definitions():
    # the library builds X10, X12 and X14 from eta products; the paper
    # defines them as polynomials in Eisenstein series and X14 as E4 X10,
    # whose rows the oracle reads with the per-l product rule from the
    # Eisenstein tables
    for name, row in paper_rows(400).items():
        assert row_to_400(name) == row, name


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
    L = 2 * N * N
    e = {k: form_table(f"E{k}H", L) for k in (4, 6, 8)}
    rows = {(3, 0): product_row(e[8], e[4], L), (0, 2): product_row(e[6], e[6], L)}
    for (a, b), row in rows.items():
        box = monomial_h(a, b, N)
        for T in whole_box(N):
            if T.n == 1:
                assert box.coeff(T) == row[T.two_det()], (a, b, T)


def test_product_row_is_the_per_l_rule_and_the_box_products_row():
    # any two tables, modular or not: the per-l rule needs only that each
    # factor is a Maass lift, which the lift of any row is
    N = 3
    e4, e6, x10 = (form_table(name, 41) for name in ("E4H", "E6H", "X10"))
    bumped = MaassTable(6, Fraction(3, 7), tuple(x + l % 3 for l, x in enumerate(e6.R)))
    spike = MaassTable(4, Fraction(0), (Fraction(0), Fraction(1)) + (Fraction(0),) * 40)
    pairs = (
        (e4, e6), (e4, x10), (x10, e4), (bumped, e4), (bumped, bumped), (spike, bumped)
    )
    for f, g in pairs:
        box = mul(lift(f, N), lift(g, N))
        row = product_row(f, g, 2 * N * N)
        for T in whole_box(N):
            if T.n == 1:
                assert box.coeff(T) == row[T.two_det()], (f.R[:3], T)


def q_rows(L):
    """Integer rows to l = L that the product must keep exact: zero rows,
    small rows, a row at q^2 (int zeros at the odd powers, as a V2 spread
    leaves them), signed rows at the extremes of their slot width, rows of
    large entries held as integer-valued Fractions, and a shorter and a
    longer row."""
    rng = random.Random(L)
    n, M = L + 1, 2**64 - 1

    def ints(bound, m=n):
        return tuple(rng.randint(-bound, bound) for _ in range(m))

    return {
        "zero int": (0,) * n,
        "zero": (Fraction(0),) * n,
        "int": ints(9),
        "at q^2": tuple(0 if l % 2 else Fraction(rng.randint(1, 99)) for l in range(n)),
        "+max": (M,) * n,
        "-max": (Fraction(-M),) * n,
        "signed": ints(10**6),
        "big": tuple(map(Fraction, ints(10**40))),
        "short": ints(10**9, L // 2 + 1),
        "long": tuple(map(Fraction, ints(10**9, L + 3))),
    }


MUL_PAIRS = (
    ("zero int", "signed"), ("signed", "zero"), ("int", "at q^2"), ("at q^2", "big"),
    ("+max", "+max"), ("+max", "-max"), ("-max", "-max"), ("signed", "big"),
    ("big", "big"), ("short", "long"), ("long", "signed"), ("int", "short"),
)


# at L = 400 the oracle costs about 0.25 s a pair: the pairs that reach the
# widest slots, the largest entries and unequal lengths
LONG_PAIRS = (("+max", "-max"), ("big", "big"), ("at q^2", "big"), ("short", "long"))


@pytest.mark.parametrize("L", (0, 1, 2, 7, 41, 400))
def test_mul_is_the_per_term_product(L):
    rows = q_rows(L)
    for x, y in MUL_PAIRS if L < 400 else LONG_PAIRS:
        got = _mul(rows[x], rows[y])
        assert got == naive_mul(rows[x], rows[y]), (x, y)
        # entries are ints, whatever the factors hold: the cusp tables wrap
        # their rows in Fractions once, so the rows have the reprs the
        # digests below were recorded from
        assert all(type(c) is int for c in got), (x, y)
    assert _mul(rows["long"], ()) == _mul((), rows["int"]) == ()
    # a non-integral entry within the shorter length is refused, in either
    # factor; one past it (at L > 0, past the shorter row) is never read
    bad = rows["int"][:-1] + (Fraction(1, 691),)
    for a, b in ((rows["signed"], bad), (bad, rows["signed"])):
        with pytest.raises(ValueError, match="integer rows, got the entry 1/691"):
            _mul(a, b)
    if L:
        assert _mul(rows["short"], bad) == naive_mul(rows["short"], bad)


def restriction(table, J):
    """The Siegel restriction of table's lift, a((j, 0, 0)) for j <= J."""
    return tuple(table.class_coeff((0, j)) for j in range(J + 1))


def test_table_restriction_is_the_lifts():
    # a table stores no restriction: it is read from the lift, and is the
    # elliptic Eisenstein series for E<k>H and, for a product lying in the
    # Maass space, the product of the factors' restrictions
    e = {k: form_table(f"E{k}H", 200) for k in (4, 6, 8, 10, 12)}
    for k, table in e.items():
        assert restriction(table, 100) == eisenstein_q(k, 100)
    x10 = form_table("X10", 200)
    assert not any(restriction(x10, 100))
    for f, g in ((e[4], e[6]), (e[4], e[4]), (e[4], x10)):
        fg = MaassTable(f.weight + g.weight, f.const * g.const, product_row(f, g, 200))
        assert restriction(fg, 100) == _mul(restriction(f, 100), restriction(g, 100))
    # E8 spans the weight-8 forms, so X12 may read E4^3 as E8 E4
    e4 = form_table("E4H", 400)
    assert product_row(e4, e4, 400) == row_to_400("E8H")


RESTRICTION_FORMS = [f"{e}{k}H" for e in "EG" for k in range(4, 17, 2)] + ["X10", "X12", "X14"]


@pytest.mark.parametrize("name", RESTRICTION_FORMS)
def test_restriction_is_the_class_coeffs(name):
    # MaassTable.restriction reads the divisor sums at the classes (0, j)
    # from one sigma_row; class_coeff reads each from divisors(j)
    table = form_table(name, 0)
    assert table.restriction(200) == list(restriction(table, 200))


# sha256 of repr(form_table(name, 400).R[:401]) for the rows past the l <= 32 the
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
        R = row_to_400(name)
        assert hashlib.sha256(repr(R).encode()).hexdigest() == want, name


# sha256 of repr(R[:797]) for the cusp rows at l <= 796, recorded from rows
# built by a per-term Fraction product, so they check _mul's integer packing
ROW_796_SHA256 = {
    "X10": "800c4cc01f8357415293bc5db6dfec9eeb379e09380787a6dfd2a72fd8c08a60",
    "X12": "eb5825554ea61411e92531bd73a62490c8212e5fbe2b07f255e75d81f9d1e98c",
    "X14": "bf81c3996d1766f567667fcc66044ccedf75e55324f43aafe402301520ab7446",
}


def test_cusp_rows_to_796_frozen():
    for name, want in ROW_796_SHA256.items():
        R = form_table(name, 796).R[:797]
        assert hashlib.sha256(repr(R).encode()).hexdigest() == want, name


def test_content_one_coefficient_is_the_row_entry():
    # divisors(1) == (1,): class_coeff returns the entry itself
    table = form_table("X12", 40)
    for td in range(41):
        assert table.class_coeff((td, 1)) is table.R[td]


def counted(monkeypatch, name):
    """An empty table cache whose builds of the named cusp form are listed,
    by the L each is built at, in the returned list."""
    monkeypatch.setattr(forms, "_TABLES", {})
    build, built = forms._CUSP_TABLES[name], []
    monkeypatch.setitem(forms._CUSP_TABLES, name, lambda L: built.append(L) or build(L))
    return built


def test_form_table_is_one_table_per_form(monkeypatch):
    built = counted(monkeypatch, "X10")
    e4 = form_table("E4H", 6)
    assert all(form_table(name, 6) is e4 for name in ("E04H", " e4h ", "e4H"))
    g10 = form_table("G10H", 6)
    assert form_table(" g010h", 3) is g10
    # G<k>H is built from its own sigma row, not from an E<k>H table
    assert "E10H" not in forms._TABLES
    x10 = form_table("X10", 20)
    assert form_table(" x10 ", 20) is x10
    # X10 is read from eta products, not from Eisenstein tables
    assert sorted(forms._TABLES) == ["E4H", "G10H", "X10"]
    # a shorter request reads the longer table and builds nothing
    assert form_table("X10", 12) is x10 and form_table("X10", 0) is x10
    assert built == [20]
    # a longer one builds the form at exactly L, in place of the old table
    longer = form_table("X10", 30)
    assert built == [20, 30] and forms._TABLES["X10"] is longer
    assert len(longer.R) == 31 and longer.R[:21] == x10.R


def test_cached_g_table_read_reads_no_bernoulli(monkeypatch):
    # g_constant (two Bernoulli reads) runs when a G<k>H table is built only
    monkeypatch.setattr(forms, "_TABLES", {})
    g10 = form_table("G10H", 6)
    calls = []
    monkeypatch.setattr(forms, "g_constant", lambda k: calls.append(k))
    assert form_table("G10H", 6) is g10 and form_table(" g010h ", 2) is g10
    assert calls == []


def test_form_table_caches_nothing_it_cannot_build(monkeypatch):
    monkeypatch.setattr(forms, "_TABLES", {})
    for bad in ("E3H", "G2H", "E7H", "X11", "E4", ""):
        with pytest.raises(ValueError):
            form_table(bad, 4)
    assert forms._TABLES == {}


@pytest.mark.parametrize("name", ("X10", "X12", "X14", "E4H", "G6H"))
def test_form_table_refuses_negative_length(monkeypatch, name):
    # refused up front, with the same error for cusp and Eisenstein forms,
    # whatever the cache holds
    monkeypatch.setattr(forms, "_TABLES", {})
    for _ in range(2):
        with pytest.raises(ValueError, match="got L = -1"):
            form_table(name, -1)
        form_table(name, 4)
    assert len(forms._TABLES[name.upper()].R) == 5


def test_nearby_x14_reads_build_each_row_once(monkeypatch):
    # two_det 40, 42 and 38 in one process: the third read is answered by
    # the second's table, and X14 reads no other table
    built = counted(monkeypatch, "X14")
    for text in ("4,5,0,0,0,0", "3,7,0,0,0,0", "1,19,0,0,0,0"):
        T = parse_tmatrix(text)
        assert x14_closed(T) == tau_star(T.two_det())
    assert built == [40, 42]
    assert sorted(forms._TABLES) == ["X14"]
    assert len(forms._TABLES["X14"].R) == 43


def test_cusp_forms_normalized_cuspidal_integral():
    for name in ("X10", "X12", "X14"):
        f = build_form(name, 3)
        assert f.coeff(T0) == 1
        assert f.coeff(ZERO_INDEX) == 0
        # cuspidal: support is rank 2 only
        assert all(T.two_det() > 0 for T in f.support())
        # integral: every coefficient is an integer
        assert all(c.denominator == 1 for _, c in f.items())
        assert not any(siegel_phi(f))


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
        x14_closed(ZERO_INDEX)


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
            if T == ZERO_INDEX:
                continue
            key = (T.class_key()[1], T.two_det())
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
        if T == ZERO_INDEX:
            expected = table.const
        else:
            td = T.two_det()
            expected = sum(
                d**k1 * table.R[td // (d * d)] for d in divisors(T.class_key()[1])
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
            if T != ZERO_INDEX and T.class_key()[1] == 1:
                primitive.setdefault(T.two_det(), f.coeff(T))
        checked = skipped = 0
        for T in whole_box(N):
            if T == ZERO_INDEX:
                continue
            eps = T.class_key()[1]
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
    assert build_form("X10", 1) == lift(form_table("X10", 2), 1)
    assert build_form("x12", 1) == build_form("X12", 1)
    assert build_form("E4H", 1) == lift(form_table("E4H", 2), 1)
    assert build_form("g10h", 1) == G(10, 1)
    assert build_form("G20H", 1).weight == 20
    for bad in ("X11", "E4", "H4E", "G0H", "", "X14Y"):
        with pytest.raises(ValueError):
            build_form(bad, 1)


def test_siegel_phi_of_eisenstein_matches_elliptic():
    for k in (4, 6, 10, 12):
        assert siegel_phi(E(k, 3)) == eisenstein_q(k, 3)
