"""Half-integral index matrices for degree-2 Fourier expansions.

A TMatrix (n, m, t) stands for the hermitian 2x2 matrix [[n, t/2], [conj(t)/2, m]]
with n, m integers and t in the dual of the Hurwitz order. Its determinant is
n*m - norm(t)/4, a half-integer; we work throughout with the integer invariant

    two_det(T) = 2*det(T) = 2*n*m - norm(t)/2,

which is what every coefficient formula in this package is indexed by.

keyed_walk is the one lattice walk here. It builds the dual ball of radius
4N^2 once and gives each of its vectors t a histogram id, which stands for
(norm(t), gcd(t), parity of sum(t)/gcd(t)). For each (n, m) block it folds
the ids once into class keys, so every index of the depth-N box is keyed by
a list lookup, with no TMatrix built; iter_keyed and iter_psd are views of
it one index at a time. class_counts folds the same histogram keys, counted
from Jacobi's four-square theorem instead of walked.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .exactnum import divisors
from .quatlat import ZERO_QUAT, QuatCoord, iter_dual

__all__ = [
    "TMatrix",
    "ZERO_TMATRIX",
    "box_size",
    "class_counts",
    "enumerate_psd",
    "iter_keyed",
    "iter_psd",
    "keyed_walk",
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


def _class_key(nm: int, g_nm: int, hkey: tuple[int, int, int]):
    """The class key of every (n, m, t) with n*m = nm, gcd(n, m) = g_nm and
    t of histogram key hkey = (norm(t), gcd(t), parity of sum(t) / gcd(t)),
    or None when norm(t) > 4nm, so that no such index is psd.

    With g = gcd(n, m, t) and s the coordinate sum of t, TMatrix.epsilon
    halves g exactly when s != 0 and v2(g) = v2(s); as g | gcd(t) | s, that
    is when v2(g) = v2(gcd(t)) and s / gcd(t) is odd.
    """
    r, g_t, odd = hkey
    if r > 4 * nm:
        return None
    g = gcd(g_nm, g_t)
    if odd and g & -g == g_t & -g_t:
        g >>= 1
    return (2 * nm - r // 2, g)


def keyed_walk(N: int, item=str):
    """The depth-N box as blocks over one ball: (items, ids, blocks).

    items[i] = item(t) and ids[i] is the histogram id of the i-th vector t
    of the dual ball norm(t) <= 4N^2 in lex order. blocks yields (n, m, keys)
    for each (n, m) in lex order, where keys[h] is the class key of (n, m, t)
    for every t of id h, or None when t lies outside the block. The psd
    condition is norm(t) <= 4nm (for n*m = 0 it leaves t = 0 only), so block
    (n, m) holds the (n, m, t) with keys[h] not None, in the ball's order.
    """
    if N < 0:
        raise ValueError("keyed_walk: depth must be >= 0")
    items, ids, index = [], [], {}
    for t in iter_dual(4 * N * N):
        a, b, c, d = t
        g = gcd(a, b, c, d)
        hkey = (t.norm(), g, (a + b + c + d) // g % 2 if g else 0)
        items.append(item(t))
        ids.append(index.setdefault(hkey, len(index)))

    def blocks():
        for n in range(N + 1):
            for m in range(N + 1):
                nm, g_nm = n * m, gcd(n, m)
                yield n, m, [_class_key(nm, g_nm, hkey) for hkey in index]

    return items, ids, blocks()


def iter_keyed(N: int, item=str):
    """Yield (n, m, item(t), key) for every index (n, m, t) of the depth-N box
    in (n, m, t) lex order, key = its class key: keyed_walk, row by row."""
    items, ids, blocks = keyed_walk(N, item)
    return (
        (n, m, x, keys[h])
        for n, m, keys in blocks
        for x, h in zip(items, ids)
        if keys[h] is not None
    )


def iter_psd(N: int):
    """Yield every psd index matrix with n <= N and m <= N, in (n, m, t) lex
    order, without keeping them: the TMatrix view of keyed_walk."""
    return (TMatrix(n, m, t) for n, m, t, _ in iter_keyed(N, lambda t: t))


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

    Each (n, m) block is the dual ball norm(t) <= 4nm, and the class key of
    (n, m, t) is a function of n*m, gcd(n, m) and the histogram key
    (norm(t), gcd(t), parity of sum(t) / gcd(t)) of t (_class_key), so a
    histogram of those keys over the ball of radius 4N^2 folds into the
    counts.

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
        for hkey, count in hist.items():
            key = _class_key(nm, g_nm, hkey)
            if key is not None:
                out[key] += mult * count
    return dict(out)
