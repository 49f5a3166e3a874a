"""Truncated degree-2 Fourier expansions and operations on them.

A FourierExpansion holds exact coefficients a(T) over the box of psd index
matrices T with n, m <= N. Zero coefficients are never stored. Products are
exact on the result box: every psd decomposition T = T1 + T2 has parts with
diagonal entries bounded by those of T, so truncation loses nothing.

The multiplication kernel clears denominators once per factor and runs the
double support loop over plain integer tuples grouped by diagonal block;
Fractions are rebuilt only for the final nonzero totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exactnum import is_prime
from .quatlat import ZERO_QUAT, QuatCoord
from .series import QSeries
from .tmat import TMatrix, ZERO_TMATRIX, class_counts, enumerate_psd

__all__ = ["CongCheck", "FourierExpansion", "cong_mod"]


class FourierExpansion:
    """Exact Fourier coefficients of a degree-2 form, truncated at depth N."""

    __slots__ = ("weight", "N", "_coeffs")

    def __init__(self, weight, N, coeffs):
        if N < 0:
            raise ValueError("FourierExpansion: depth must be >= 0")
        self.weight = int(weight)
        self.N = int(N)
        self._coeffs = {
            T: Fraction(c) for T, c in coeffs.items() if c != 0
        }

    @classmethod
    def zero(cls, weight: int, N: int) -> "FourierExpansion":
        return cls(weight, N, {})

    @classmethod
    def constant(cls, value, N: int) -> "FourierExpansion":
        """The weight-0 constant value."""
        return cls(0, N, {ZERO_TMATRIX: Fraction(value)})

    def coeff(self, T: TMatrix) -> Fraction:
        """a(T); raises ValueError outside the n, m <= N box."""
        if T.n > self.N or T.m > self.N:
            raise ValueError(f"{T} lies outside the depth-{self.N} box")
        return self._coeffs.get(T, Fraction(0))

    def support(self):
        """Index matrices with nonzero coefficient, in (n, m, t) order."""
        return sorted(self._coeffs)

    def items(self):
        """(T, coefficient) pairs in enumeration order of the support."""
        return sorted(self._coeffs.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FourierExpansion):
            return NotImplemented
        return (
            self.weight == other.weight
            and self.N == other.N
            and self._coeffs == other._coeffs
        )

    def __repr__(self) -> str:
        return (
            f"<FourierExpansion weight={self.weight} N={self.N} "
            f"support={len(self._coeffs)}>"
        )

    def __add__(self, other: "FourierExpansion") -> "FourierExpansion":
        if not isinstance(other, FourierExpansion):
            return NotImplemented
        if self.weight != other.weight:
            raise ValueError(
                f"weight mismatch in sum: {self.weight} vs {other.weight}"
            )
        N = min(self.N, other.N)
        out: dict[TMatrix, Fraction] = {
            T: c for T, c in self._coeffs.items() if T.n <= N and T.m <= N
        }
        for T, c in other._coeffs.items():
            if T.n <= N and T.m <= N:
                out[T] = out.get(T, Fraction(0)) + c
        return FourierExpansion(self.weight, N, out)

    def __sub__(self, other: "FourierExpansion") -> "FourierExpansion":
        return self + other.scale(-1)

    def scale(self, c) -> "FourierExpansion":
        c = Fraction(c)
        return FourierExpansion(
            self.weight, self.N, {T: c * v for T, v in self._coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, FourierExpansion):
            return NotImplemented
        N = min(self.N, other.N)
        blocks1, den1 = _int_blocks(self._coeffs)
        blocks2, den2 = _int_blocks(other._coeffs)
        acc: dict[tuple[int, int], dict[tuple[int, int, int, int], int]] = {}
        for (n1, m1), items1 in blocks1.items():
            for (n2, m2), items2 in blocks2.items():
                n = n1 + n2
                m = m1 + m2
                if n > N or m > N:
                    continue
                tacc = acc.setdefault((n, m), {})
                for (a1, b1, c1, d1), v1 in items1:
                    for (a2, b2, c2, d2), v2 in items2:
                        key = (a1 + a2, b1 + b2, c1 + c2, d1 + d2)
                        prev = tacc.get(key)
                        tacc[key] = v1 * v2 if prev is None else prev + v1 * v2
        den = den1 * den2
        out: dict[TMatrix, Fraction] = {}
        for (n, m), tacc in acc.items():
            for tk, v in tacc.items():
                if v:
                    out[TMatrix(n, m, QuatCoord._make(tk))] = Fraction(v, den)
        return FourierExpansion(self.weight + other.weight, N, out)

    __rmul__ = __mul__

    def siegel_phi(self) -> QSeries:
        """Restriction to degree 1: the q-series of coefficients a((n, 0, 0))."""
        return QSeries(
            self.weight,
            tuple(
                self._coeffs.get(TMatrix(n, 0, ZERO_QUAT), Fraction(0))
                for n in range(self.N + 1)
            ),
        )


def _int_blocks(coeffs):
    """Group support by diagonal (n, m), clearing denominators to ints."""
    den = 1
    for c in coeffs.values():
        den = lcm(den, c.denominator)
    blocks: dict[tuple[int, int], list] = {}
    for T, c in coeffs.items():
        blocks.setdefault((T.n, T.m), []).append(
            (tuple(T.t), c.numerator * (den // c.denominator))
        )
    return blocks, den


@dataclass(frozen=True)
class CongCheck:
    """Outcome of a coefficientwise congruence check modulo p.

    status is "holds", "fails" (witness = first violating T in enumeration
    order), or "not-p-integral" (witness = first T where either side has a
    coefficient with p in the denominator, so the congruence is meaningless).
    checked counts box entries examined.
    """

    status: str
    witness: TMatrix | None
    checked: int

    @property
    def ok(self) -> bool:
        return self.status == "holds"


def cong_mod(f, g, p: int, N: int) -> CongCheck:
    """Check f(T) == g(T) mod p for every T in the depth-N box.

    f and g map a class key (two_det, content), T.class_key(), to the exact
    coefficient at every T of that class: a MaassTable's class_coeff, or any
    function of it such as a theta image. Each is evaluated once per class of
    the box, and a sweep that holds has checked every index. Otherwise the
    box is walked to the first T whose class fails, so the witness and
    checked are those of an index-by-index sweep. A source that cannot
    answer at some class raises ValueError there.
    """
    if not is_prime(p):
        raise ValueError(f"cong_mod: modulus {p} is not prime")
    counts = class_counts(N)
    bad = {}
    for key in counts:
        a = f(key)
        b = g(key)
        if a.denominator % p == 0 or b.denominator % p == 0:
            bad[key] = "not-p-integral"
        elif a != b and (a - b).numerator % p:
            bad[key] = "fails"
    if not bad:
        return CongCheck("holds", None, sum(counts.values()))
    i, T = next(
        (i, T) for i, T in enumerate(enumerate_psd(N)) if T.class_key() in bad
    )
    return CongCheck(bad[T.class_key()], T, i + 1)
