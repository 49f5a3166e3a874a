"""Truncated degree-2 Fourier expansions.

A FourierExpansion is the read-only container that build_form returns:
exact coefficients a(T) over the box of psd index matrices T with
n, m <= N, with zero coefficients never stored. The library
does no arithmetic on expansions. Every named form is computed from its
one-variable MaassTable, and the ring of whole expansions lives in the
tests as the oracle of those tables.
"""

from fractions import Fraction

from .tmat import TMatrix

__all__ = ["FourierExpansion"]


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
