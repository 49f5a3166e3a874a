"""Half-integral index matrices for degree-2 Fourier expansions.

A TMatrix (n, m, t) stands for the hermitian 2x2 matrix [[n, t/2], [conj(t)/2, m]]
with n, m integers and t in the dual of the Hurwitz order. Its determinant is
n*m - norm(t)/4, a half-integer; we work throughout with the integer invariant

    two_det(T) = 2*det(T) = 2*n*m - norm(t)/2,

which is what every coefficient formula in this package is indexed by.

iter_psd walks the depth-N box, the one lattice walk here; class_counts
counts its indices per class from Jacobi's four-square theorem instead.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .exactnum import divisors
from .quatlat import ZERO_QUAT, QuatCoord, enumerate_dual

__all__ = [
    "TMatrix",
    "ZERO_TMATRIX",
    "box_size",
    "class_counts",
    "enumerate_psd",
    "iter_psd",
    "parse_tmatrix",
]


class TMatrix(NamedTuple):
    n: int
    m: int
    t: QuatCoord

    def two_det(self) -> int:
        return 2 * self.n * self.m - self.t.norm() // 2

    def is_psd(self) -> bool:
        """Positive semidefiniteness over the rationals.

        Requires n, m, two_det >= 0, and additionally t = 0 whenever a
        diagonal entry vanishes (a singular row forces the whole row to 0).
        """
        if self.n < 0 or self.m < 0 or self.two_det() < 0:
            return False
        if (self.n == 0 or self.m == 0) and self.t != ZERO_QUAT:
            return False
        return True

    def rank(self) -> int:
        """Matrix rank (0, 1 or 2); defined for psd T only."""
        if not self.is_psd():
            raise ValueError(f"rank: {self} is not positive semidefinite")
        if self.two_det() > 0:
            return 2
        if self.n == 0 and self.m == 0 and self.t == ZERO_QUAT:
            return 0
        return 1

    def epsilon(self) -> int:
        """Content of T: the largest d >= 1 with d | n, d | m and t/d still dual.

        With g = gcd(n, m, t) and s the coordinate sum of t, t/d is dual
        exactly when s/d is even. As g | s, s/g is odd exactly when the
        lowest set bits of g and s agree (s = 0 has none), and then g/2 is
        the content; otherwise g is. Defined for T != 0 with t dual only.
        """
        if self == ZERO_TMATRIX:
            raise ValueError("epsilon: undefined for the zero matrix")
        a, b, c, d = self.t
        g = gcd(self.n, self.m, a, b, c, d)
        s = a + b + c + d
        if s % 2:
            raise ValueError(f"epsilon: {self.t} is not in the dual lattice")
        return g >> 1 if g & -g == s & -s else g

    def class_key(self) -> tuple[int, int]:
        """(two_det, epsilon), or (0, 0) for T = 0: a coefficient of a
        Maass-space form depends on T only through this key."""
        if self == ZERO_TMATRIX:
            return (0, 0)
        return (self.two_det(), self.epsilon())

    def __str__(self) -> str:
        return f"{self.n},{self.m},{self.t}"


ZERO_TMATRIX = TMatrix(0, 0, ZERO_QUAT)


def parse_tmatrix(text: str) -> TMatrix:
    """Parse 'n,m,a,b,c,d' into a TMatrix; rejects t outside the dual lattice."""
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError(f"expected 6 comma-separated integers, got {text!r}")
    try:
        vals = [int(p.strip()) for p in parts]
    except ValueError:
        raise ValueError(f"non-integer entry in {text!r}") from None
    t = QuatCoord(*vals[2:])
    if not t.in_dual():
        raise ValueError(
            f"off-diagonal part {t} is not in the dual lattice "
            "(coordinate sum must be even)"
        )
    return TMatrix(vals[0], vals[1], t)


def iter_psd(N: int):
    """Yield every psd index matrix with n <= N and m <= N, in (n, m, t) lex
    order, without keeping them.

    For n*m > 0 the psd condition is exactly norm(t) <= 4*n*m, so each block
    is the part of the dual ball norm(t) <= 4N^2 inside that radius, taken in
    the ball's lex order; the ball is walked, and its norms computed, once.
    For n*m = 0 it forces t = 0.
    """
    if N < 0:
        raise ValueError("iter_psd: depth must be >= 0")
    return _walk_psd(N)


def _walk_psd(N: int):
    ball = [(t.norm(), t) for t in enumerate_dual(4 * N * N)]
    for n in range(N + 1):
        for m in range(N + 1):
            if n == 0 or m == 0:
                yield TMatrix(n, m, ZERO_QUAT)
            else:
                radius = 4 * n * m
                for r, t in ball:
                    if r <= radius:
                        yield TMatrix(n, m, t)


@lru_cache(maxsize=None)
def enumerate_psd(N: int) -> tuple[TMatrix, ...]:
    """All psd index matrices with n <= N and m <= N, in (n, m, t) lex order:
    iter_psd(N), kept."""
    return tuple(iter_psd(N))


def box_size(N: int) -> int:
    """len(enumerate_psd(N)), counted without the box: the total of
    class_counts(N)."""
    return sum(class_counts(N).values())


def class_counts(N: int) -> dict[tuple[int, int], int]:
    """{class key: number of indices} over the depth-N box, counted from
    Jacobi's four-square theorem without walking a lattice.

    Each (n, m) block is the dual ball norm(t) <= 4nm. With g = gcd(n, m, t)
    and s the coordinate sum of t, TMatrix.epsilon halves g exactly when
    s != 0 and v2(g) = v2(s); as g | gcd(t) | s, that is when v2(g) =
    v2(gcd(t)) and s / gcd(t) is odd. So the key of (n, m, t) is a function
    of 2nm, gcd(n, m) and the histogram key (norm(t), gcd(t), parity of
    s / gcd(t)).

    Z^4 holds r4(r) = 8 * (sum of the divisors of r not divisible by 4)
    vectors of norm r, of which P(r) = r4(r) - sum(P(r / g^2) for g >= 2
    with g^2 | r) are primitive. Write t = g*u with g = gcd(t) and u
    primitive: as x = x^2 mod 2, s / g has the parity of norm(u), so t is
    dual exactly when g * norm(u) is even, and the histogram holds P(norm(u))
    vectors of key (g^2 norm(u), g, norm(u) mod 2) for each such pair, and
    one of key (0, 0, 0), t = 0. Each block then folds the histogram in.
    """
    if N < 0:
        raise ValueError("class_counts: depth must be >= 0")
    R = 4 * N * N
    # prim[r] is r4(r), and P(r) once the loop below has passed r
    prim = [0] + [8 * sum(d for d in divisors(r) if d % 4) for r in range(1, R + 1)]
    hist = Counter({(0, 0, 0): 1})
    for u in range(1, R + 1):
        if not prim[u]:  # 8 | u: no primitive vector has this norm
            continue
        for g in range(1, isqrt(R // u) + 1):
            if g > 1:
                prim[g * g * u] -= prim[u]
            if g * u % 2 == 0:
                hist[g * g * u, g, u % 2] += prim[u]
    out = Counter()
    blocks = Counter(
        (n * m, gcd(n, m)) for n in range(N + 1) for m in range(N + 1)
    )
    for (nm, g_nm), mult in blocks.items():
        for (r, g_t, odd), count in hist.items():
            if r <= 4 * nm:
                g = gcd(g_nm, g_t)
                if odd and g & -g == g_t & -g_t:
                    g >>= 1
                out[2 * nm - r // 2, g] += mult * count
    return dict(out)
