"""Truncated degree-2 Fourier expansions and the congruence sweep.

A FourierExpansion is the read-only container that build_form and
maass_lift return: exact coefficients a(T) over the box of psd index
matrices T with n, m <= N, with zero coefficients never stored. The library
does no arithmetic on expansions. Every named form is computed from its
one-variable MaassTable, and the ring of whole expansions lives in the
tests as the oracle of those tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import is_prime
from .tmat import TMatrix, class_counts, iter_keyed

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
    keyed walk reads the class of each index, without keeping the box or
    building an index matrix but for the witness, up to the first T whose
    class fails, so the witness and checked are those of an index-by-index
    sweep. A source that cannot answer at some class raises ValueError there.
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
    i, (n, m, t, key) = next(
        (i, row) for i, row in enumerate(iter_keyed(N, lambda t: t)) if row[3] in bad
    )
    return CongCheck(bad[key], TMatrix(n, m, t), i + 1)
