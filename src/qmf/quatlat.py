"""Integral quaternions: the Hurwitz order and its dual lattice.

Quaternions are stored by their rational coordinates times 1: a QuatCoord
(a, b, c, d) stands for a + b*i + c*j + d*k with integer entries. The dual
lattice of the Hurwitz order, in this coordinate system, is exactly the set
of integer vectors with a == b + c + d (mod 2), i.e. even coordinate sum;
its quadratic form norm(t) = a^2 + b^2 + c^2 + d^2 is then always even.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

__all__ = ["QuatCoord", "ZERO_QUAT", "iter_dual"]


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


ZERO_QUAT = QuatCoord(0, 0, 0, 0)


def iter_dual(R: int):
    """Yield the dual-lattice vectors with norm(t) <= R in lexicographic
    order, without keeping them.

    Nested ranges are pruned by the remaining norm budget, so the cost is
    proportional to the number of lattice points returned, not to the
    enclosing box.
    """
    if R < 0:
        raise ValueError("dual ball: bound must be >= 0")
    ra = isqrt(R)
    for a in range(-ra, ra + 1):
        budget_a = R - a * a
        rb = isqrt(budget_a)
        for b in range(-rb, rb + 1):
            budget_b = budget_a - b * b
            rc = isqrt(budget_b)
            for c in range(-rc, rc + 1):
                budget_c = budget_b - c * c
                rd = isqrt(budget_c)
                parity = (a + b + c) % 2
                # d must make a+b+c+d even, so d has the parity of a+b+c
                start = -rd if (-rd) % 2 == parity else -rd + 1
                for d in range(start, rd + 1, 2):
                    yield QuatCoord(a, b, c, d)
