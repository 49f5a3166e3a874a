"""Integral quaternions: the Hurwitz order and its dual lattice.

Quaternions are stored by their rational coordinates times 1: a QuatCoord
(a, b, c, d) stands for a + b*i + c*j + d*k with integer entries. The dual
lattice of the Hurwitz order, in this coordinate system, is exactly the set
of integer vectors with a == b + c + d (mod 2), i.e. even coordinate sum;
its quadratic form norm(t) = a^2 + b^2 + c^2 + d^2 is then always even.
The balls of the dual lattice are walked in qmf.tmat.keyed_walk.
"""

from typing import NamedTuple

__all__ = ["QuatCoord"]


class QuatCoord(NamedTuple):
    a: int
    b: int
    c: int
    d: int

    def norm(self) -> int:
        """Quaternion norm t * conj(t) = a^2 + b^2 + c^2 + d^2."""
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def in_dual(self) -> bool:
        """Membership in the dual of the Hurwitz order: even coordinate sum."""
        return (self.a + self.b + self.c + self.d) % 2 == 0

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c},{self.d}"
