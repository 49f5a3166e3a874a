"""The elliptic algebra of the Ramanujan certificate.

A QSeries is a weight-labelled truncated power series in q with Fraction
coefficients, indexed 0..prec. Products truncate to the smaller precision of
the two factors; all arithmetic is exact.

The level-1 generators E4 and E6 (constant term 1) are not stated here: they
are the Siegel restrictions of the Eisenstein tables, read from the lift as
forms.form_table(f"E{w}H", 0).class_coeff((0, j)), the reading build_chi
uses for the restriction of G. This module only forms their monomials and
writes a series in them.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import form_table

__all__ = ["QSeries", "e4_e6_monomials", "express_in_e4_e6"]


class QSeries:
    """Truncated q-expansion of a (formal) modular form of the given weight."""

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight: int, coeffs):
        self.weight = weight
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("QSeries: need at least the constant coefficient")

    def __eq__(self, other):
        same = isinstance(other, QSeries) and self.weight == other.weight
        return same and self.coeffs == other.coeffs

    @property
    def prec(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.prec:
            raise IndexError(f"coefficient q^{n} beyond precision {self.prec}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise ValueError("truncate: cannot extend precision")
        return QSeries(self.weight, self.coeffs[: prec + 1])

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.weight != other.weight:
            raise ValueError(
                f"weight mismatch in sum: {self.weight} vs {other.weight}"
            )
        p = min(self.prec, other.prec)
        return QSeries(
            self.weight,
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(p + 1)),
        )

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        p = min(self.prec, other.prec)
        out = [Fraction(0)] * (p + 1)
        for i in range(p + 1):
            a = self.coeffs[i]
            if a:
                for j in range(p + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return QSeries(self.weight + other.weight, tuple(out))

    def scale(self, c) -> "QSeries":
        c = Fraction(c)
        return QSeries(self.weight, tuple(c * x for x in self.coeffs))


def e4_e6_monomials(k: int, prec: int) -> dict[tuple[int, int], QSeries]:
    """The monomials E4^a * E6^b of weight 4a + 6b = k to precision prec,
    keyed by (a, b) in decreasing a; empty when there are none. E4 and E6
    are the Siegel restrictions of the weight-4 and weight-6 Eisenstein
    tables."""
    out: dict[tuple[int, int], QSeries] = {}
    if k < 0 or k % 2:
        return out
    e4, e6 = (
        QSeries(E.weight, tuple(E.class_coeff((0, j)) for j in range(prec + 1)))
        for E in (form_table("E4H", 0), form_table("E6H", 0))
    )
    one = QSeries(0, (Fraction(1),) + (Fraction(0),) * prec)
    for b in range(k // 6 + 1):
        rem = k - 6 * b
        if rem % 4 == 0:
            mon = one
            for _ in range(rem // 4):
                mon = mon * e4
            for _ in range(b):
                mon = mon * e6
            out[(rem // 4, b)] = mon
    return out


def express_in_e4_e6(f: QSeries) -> dict[tuple[int, int], Fraction]:
    """Write f as a polynomial in the weight-4 and weight-6 generators.

    Returns {(a, b): c} with f = sum c * E4^a * E6^b over exponents
    4a + 6b = weight(f); zero coefficients are dropped. The linear system is
    solved exactly from the first dim-many q-coefficients and the remaining
    coefficients are checked against the result; any residual mismatch (f not
    in the span at this weight) raises ValueError, as does insufficient
    precision.
    """
    k = f.weight
    monomials = e4_e6_monomials(k, f.prec)
    if not monomials:
        if f.is_zero():
            return {}
        raise ValueError(f"no monomials in weights 4 and 6 have weight {k}")
    pairs = list(monomials)
    basis = list(monomials.values())
    d = len(pairs)
    if f.prec < d - 1:
        raise ValueError(
            f"need at least {d - 1} q-coefficients beyond the constant, "
            f"have {f.prec}"
        )
    prec = f.prec
    # exact Gaussian elimination on the leading d x d coefficient matrix
    mat = [[basis[j].coeff(i) for j in range(d)] + [f.coeff(i)] for i in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if mat[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular coefficient system")
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(d):
            if r != col and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    sol = [mat[i][d] for i in range(d)]
    for n in range(prec + 1):
        recon = sum(sol[j] * basis[j].coeff(n) for j in range(d))
        if recon != f.coeff(n):
            raise ValueError(
                f"residual mismatch at q^{n}: series is not in the "
                "polynomial span of the weight-4 and weight-6 generators"
            )
    return {pairs[j]: sol[j] for j in range(d) if sol[j] != 0}
