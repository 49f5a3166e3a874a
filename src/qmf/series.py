"""Elliptic modular forms as exact q-expansions.

A QSeries is a weight-labelled truncated power series in q with Fraction
coefficients, indexed 0..prec. Products truncate to the smaller precision of
the two factors; all arithmetic is exact.

The level-1 generators are normalized with constant term 1:
eisenstein_q(k) = 1 - (2k/B_k) * sum sigma_{k-1}(n) q^n, and the weight-12
cusp form delta_q = (eisenstein_q(4)^3 - eisenstein_q(6)^2) / 1728 carries
the tau coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import bernoulli, sigma

__all__ = [
    "DEFAULT_PREC",
    "QSeries",
    "delta_q",
    "e4_e6_monomials",
    "eisenstein_q",
    "express_in_e4_e6",
    "tau",
    "tau_star",
]

DEFAULT_PREC = 64


@dataclass(frozen=True)
class QSeries:
    """Truncated q-expansion of a (formal) modular form of the given weight."""

    weight: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )
        if not self.coeffs:
            raise ValueError("QSeries: need at least the constant coefficient")

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


def eisenstein_q(k: int, prec: int = DEFAULT_PREC) -> QSeries:
    """Weight-k level-1 Eisenstein series, constant term 1."""
    if k < 4 or k % 2:
        raise ValueError(f"eisenstein_q: weight must be even and >= 4, got {k}")
    c = Fraction(-2 * k) / bernoulli(k)
    return QSeries(
        k, (Fraction(1),) + tuple(c * sigma(k - 1, n) for n in range(1, prec + 1))
    )


# tau coefficients, grown on demand: _tau_ints[n] = tau(n), index 0 unused (0).
_tau_ints: list[int] = [0]


def _ensure_tau(n: int) -> None:
    if n < len(_tau_ints):
        return
    prec = max(2 * (len(_tau_ints) - 1), n, DEFAULT_PREC)
    e4 = eisenstein_q(4, prec)
    e6 = eisenstein_q(6, prec)
    delta = (e4 * e4 * e4 - e6 * e6).scale(Fraction(1, 1728))
    del _tau_ints[1:]
    for c in delta.coeffs[1:]:
        assert c.denominator == 1
        _tau_ints.append(c.numerator)


def tau(n: int) -> int:
    """Coefficient of q^n in the weight-12 cusp form delta_q; tau(0) = 0."""
    if n < 0:
        raise ValueError("tau: index must be >= 0")
    if n == 0:
        return 0
    _ensure_tau(n)
    return _tau_ints[n]


def tau_star(ell: int) -> int:
    """tau(ell) - 2^12 * tau(ell/4), the level-4 twist of tau; 0 at ell = 0."""
    if ell < 0:
        raise ValueError("tau_star: index must be >= 0")
    value = tau(ell)
    if ell % 4 == 0 and ell > 0:
        value -= 4096 * tau(ell // 4)
    return value


def delta_q(prec: int = DEFAULT_PREC) -> QSeries:
    """The normalized weight-12 cusp form, coefficients tau(n)."""
    _ensure_tau(prec)
    return QSeries(12, tuple(Fraction(tau(n)) for n in range(prec + 1)))


def e4_e6_monomials(k: int, prec: int) -> dict[tuple[int, int], QSeries]:
    """The monomials E4^a * E6^b of weight 4a + 6b = k to precision prec,
    keyed by (a, b) in decreasing a; empty when there are none."""
    out: dict[tuple[int, int], QSeries] = {}
    if k < 0 or k % 2:
        return out
    e4 = eisenstein_q(4, prec)
    e6 = eisenstein_q(6, prec)
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
