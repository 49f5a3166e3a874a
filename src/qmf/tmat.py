"""Half-integral index matrices for degree-2 Fourier expansions.

A TMatrix (n, m, t) stands for the hermitian 2x2 matrix [[n, t/2], [conj(t)/2, m]]
with n, m integers and t in the dual of the Hurwitz order. Its determinant is
n*m - norm(t)/4, a half-integer; we work throughout with the integer invariant

    two_det(T) = 2*det(T) = 2*n*m - norm(t)/2,

which is what every coefficient formula in this package is indexed by.

The class key (two_det(T), content of T) of an index (n, m, t) depends only
on n*m, gcd(n, m) and the histogram key _hkey(t) = (norm(t), gcd(t), parity
of sum(t)/gcd(t)). _class_key is that fold, and the one statement of the
content rule (_content) and of the class key, which TMatrix.class_key and
the walk and the counts of the box in qmf.box read.
"""

from math import gcd
from typing import NamedTuple

from .quatlat import QuatCoord

__all__ = ["TMatrix", "enumerate_psd", "parse_tmatrix"]


class TMatrix(NamedTuple):
    n: int
    m: int
    t: QuatCoord

    def two_det(self) -> int:
        return 2 * self.n * self.m - self.t.norm() // 2

    def is_psd(self) -> bool:
        """Positive semidefiniteness over the rationals: n, m, two_det >= 0.
        A vanishing diagonal entry then forces t = 0, as two_det = -norm(t)/2."""
        return self.n >= 0 and self.m >= 0 and self.two_det() >= 0

    def class_key(self) -> tuple[int, int]:
        """(two_det, content) of a psd T, (0, 0) for T = 0 (_class_key): a
        coefficient of a Maass-space form depends on T only through it. The
        content eps(T) is the largest d >= 1 with d | n, d | m and t/d still
        dual (_content)."""
        return _class_key(self.n * self.m, gcd(self.n, self.m), _hkey(self.t))

    def __str__(self) -> str:
        return f"{self.n},{self.m},{self.t}"


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


def _hkey(t: QuatCoord) -> tuple[int, int, int]:
    """The histogram key (norm(t), gcd(t), parity of sum(t) / gcd(t)) of t;
    (0, 0, 0) for t = 0."""
    a, b, c, d = t
    g = gcd(a, b, c, d)
    return (t.norm(), g, (a + b + c + d) // g % 2 if g else 0)


def _content(g_nm: int, hkey: tuple[int, int, int]) -> int:
    """The content of every (n, m, t) with gcd(n, m) = g_nm and t dual of
    histogram key hkey: the largest d with d | n, d | m and t/d dual.

    With g = gcd(n, m, t) and s the coordinate sum of t, t/d is dual exactly
    when s/d is even, so the content is g/2 when s/g is odd and g otherwise.
    As g | gcd(t) | s, s/g is odd exactly when v2(g) = v2(gcd(t)) and
    s / gcd(t) is odd. It is 0 for T = 0 only.
    """
    _, g_t, odd = hkey
    g = gcd(g_nm, g_t)
    return g >> 1 if odd and g & -g == g_t & -g_t else g


def _class_key(nm: int, g_nm: int, hkey: tuple[int, int, int]):
    """The class key (two_det, content) of every (n, m, t) with n*m = nm,
    gcd(n, m) = g_nm and t of histogram key hkey, or None when norm(t) > 4nm,
    so that no such index is psd. T = 0 has key (0, 0)."""
    r = hkey[0]
    if r > 4 * nm:
        return None
    return (2 * nm - r // 2, _content(g_nm, hkey))


def enumerate_psd(N: int) -> tuple[TMatrix, ...]:
    """All psd index matrices with n <= N and m <= N, in (n, m, t) lex order:
    the texts of box.iter_keyed parsed, built anew on each call. Its length
    is the total of box.class_counts(N)."""
    from .box import iter_keyed

    return tuple(parse_tmatrix(text) for text, _ in iter_keyed(N))
