"""The named degree-2 forms over the Hurwitz order.

Every named form (E<k>H, G<k>H, X10, X12, X14) lies in the Maass space, so
it is fixed by its weight, its constant term and its first Fourier-Jacobi
row R, a function of one variable. The coefficient at T != 0 is
sum_{d | eps(T)} d^(k-1) * R(two_det(T)/d^2), where eps is the content of T
(Eichler-Zagier, The Theory of Jacobi Forms; Krieg on the Maass space for
quaternionic modular forms of degree 2). Eisenstein series have closed-form
tables. The cusp forms in weights 10, 12 and 14 are exact rational
combinations of products of them, normalized so their coefficient at
T_0 = (1, 1, (1, 1, 0, 0)) equals 1; their rows combine Eisenstein rows and
the first Fourier-Jacobi rows of products, read by the one-variable product
rule _product_row. A table is the form: callers read coefficients from it.
build_form lifts a table to a read-only FourierExpansion on a whole box,
which the library never does arithmetic on; the tests multiply such boxes
in their oracle for the tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import bernoulli, divisors, sigma
from .fexp import FourierExpansion
from .tmat import TMatrix, class_counts, iter_keyed

__all__ = [
    "MaassTable",
    "build_form",
    "eisenstein_table",
    "form_table",
    "g_constant",
    "maass_lift",
    "x14_closed",
]


def _check_weight(k: int) -> None:
    if k < 4 or k % 2:
        raise ValueError(f"weight must be even and >= 4, got {k}")


@dataclass(frozen=True)
class MaassTable:
    """A Maass-space form's weight, constant term const and first
    Fourier-Jacobi row R, R[l] = a((1, m, t)) at l = 2m - norm(t)/2, exact
    for 0 <= l <= L; coeff reads the form's Maass lift.

    A coefficient at T != 0 depends on T only through the class key
    (two_det(T), eps(T)) that tmat._class_key folds, so class_coeff is the
    coefficient function and coeff reads T's class through it. The Siegel
    restriction is the lift's too: a((j, 0, 0)) = class_coeff((0, j)).
    """

    weight: int
    const: Fraction
    R: tuple[Fraction, ...]

    def coeff(self, T: TMatrix) -> Fraction:
        """Coefficient of the Maass lift at T (0 when T is not psd); raises
        ValueError when two_det(T) > L."""
        return self.class_coeff(T.class_key()) if T.is_psd() else Fraction(0)

    def class_coeff(self, key: tuple[int, int]) -> Fraction:
        """Coefficient of the Maass lift at every psd T of class key =
        T.class_key(); raises ValueError when two_det > L."""
        if key == (0, 0):
            return self.const
        td, eps = key
        if td >= len(self.R):
            raise ValueError(
                f"table reaches l = {len(self.R) - 1}; class {key} needs l = {td}"
            )
        k1 = self.weight - 1
        return sum(d**k1 * self.R[td // (d * d)] for d in divisors(eps))


def maass_lift(table: MaassTable, N: int) -> FourierExpansion:
    """The Maass lift of table on the depth-N box, each class evaluated
    once; needs L >= 2*N^2, the largest two_det in the box."""
    _check_weight(table.weight)
    coeffs = {key: table.class_coeff(key) for key in class_counts(N)}
    return FourierExpansion(
        table.weight,
        N,
        {TMatrix(n, m, t): coeffs[key] for n, m, t, key in iter_keyed(N, lambda t: t)},
    )


def g_constant(k: int) -> Fraction:
    """Normalizing scalar putting the weight-k Eisenstein series on the
    integral singular series sigma_{k-3}(l) - 2^(k-2) sigma_{k-3}(l/4)."""
    _check_weight(k)
    return Fraction(-(2 ** (k - 2) - 1)) * bernoulli(k) * bernoulli(k - 2) / (
        4 * k * (k - 2)
    )


@lru_cache(maxsize=None)
def eisenstein_table(k: int, L: int) -> MaassTable:
    """Closed-form table of the weight-k Eisenstein series, constant term 1:
    R(0) = -2k/B_k and
    R(l) = (sigma_(k-3)(l) - 2^(k-2) sigma_(k-3)(l/4)) / g_constant(k)."""
    cpos = 1 / g_constant(k)  # checks the weight before B_k is read
    c0 = Fraction(-2 * k) / bernoulli(k)
    twist = 2 ** (k - 2)
    R = (c0,) + tuple(
        cpos * (sigma(k - 3, ell) - twist * sigma(k - 3, Fraction(ell, 4)))
        for ell in range(1, L + 1)
    )
    return MaassTable(k, Fraction(1), R)


def _product_row(f: MaassTable, g: MaassTable) -> tuple[Fraction, ...]:
    """The first Fourier-Jacobi row of the product fg, up to the shorter
    row's L: the n1 + n2 = 1 part of the box convolution, as (1, m, t) splits
    only as (0, j, 0) + (1, m - j, t) or the reverse, so
    R(l) = sum_j f0(j) R_g(l - 2j) + R_f(l - 2j) g0(j), with
    f0(j) = f.class_coeff((0, j)) the restriction of f and g0 that of g.
    Exact whether or not fg lies in the Maass space, as f and g do."""
    Rf, Rg = f.R, g.R
    L = min(len(Rf), len(Rg)) - 1
    f0 = [f.class_coeff((0, j)) for j in range(L // 2 + 1)]
    g0 = [g.class_coeff((0, j)) for j in range(L // 2 + 1)]
    return tuple(
        sum(f0[j] * Rg[l - 2 * j] + Rf[l - 2 * j] * g0[j] for j in range(l // 2 + 1))
        for l in range(L + 1)
    )


@lru_cache(maxsize=None)
def _g_table(k: int, L: int) -> MaassTable:
    """Table of g_constant(k) times the weight-k Eisenstein series: at any T
    with eps(T) = 1 and two_det(T) = l > 0 its coefficient is the integer
    sigma_{k-3}(l) - 2^(k-2) sigma_{k-3}(l/4)."""
    c = g_constant(k)
    return MaassTable(k, c, tuple(c * a for a in eisenstein_table(k, L).R))


@lru_cache(maxsize=None)
def _x10_table(L: int) -> MaassTable:
    e = eisenstein_table
    c = Fraction(17, 161280)
    R = zip(_product_row(e(4, L), e(6, L)), e(10, L).R)
    return MaassTable(10, Fraction(0), tuple(c * (a - b) for a, b in R))


@lru_cache(maxsize=None)
def _x12_table(L: int) -> MaassTable:
    """(441/691 E4^3 + 250/691 E6^2 - E12) * 21421/203212800, with E4^3
    read as E8 E4 (E8 = E4^2 spans the weight-8 forms)."""
    e = eisenstein_table
    c, u, v = Fraction(21421, 203212800), Fraction(441, 691), Fraction(250, 691)
    R = zip(_product_row(e(8, L), e(4, L)), _product_row(e(6, L), e(6, L)), e(12, L).R)
    return MaassTable(12, Fraction(0), tuple(c * (u * a + v * b - z) for a, b, z in R))


@lru_cache(maxsize=None)
def _x14_table(L: int) -> MaassTable:
    R = _product_row(eisenstein_table(4, L), _x10_table(L))
    return MaassTable(14, Fraction(0), R)


def x14_closed(T: TMatrix) -> Fraction:
    """The weight-14 cusp coefficient at a rank-2 index, read off the X14
    table alone: sum_{d | eps(T)} d^13 R(two_det(T)/d^2), R = tau_star."""
    if T.rank() != 2:
        raise ValueError(f"closed form needs rank 2, got {T}")
    return _x14_table(T.two_det()).coeff(T)


_FORM_RE = re.compile(r"([EG])(\d+)H", re.IGNORECASE)
_CUSP_TABLES = {"X10": _x10_table, "X12": _x12_table, "X14": _x14_table}


def form_table(name: str, L: int) -> MaassTable:
    """Table up to l = L of a named form: X10, X12, X14, E<k>H or G<k>H."""
    key = name.strip().upper()
    if key in _CUSP_TABLES:
        return _CUSP_TABLES[key](L)
    m = _FORM_RE.fullmatch(key)
    if m:
        k = int(m.group(2))
        return eisenstein_table(k, L) if m.group(1) == "E" else _g_table(k, L)
    raise ValueError(
        f"unknown form {name!r}: expected X10, X12, X14, E<k>H or G<k>H"
    )


def build_form(name: str, N: int) -> FourierExpansion:
    """The Maass lift on the depth-N box of a named form: X10, X12, X14,
    E<k>H or G<k>H."""
    return maass_lift(form_table(name, 2 * N * N), N)
