"""Half-integral index matrices for degree-2 Fourier expansions.

A TMatrix (n, m, t) stands for the hermitian 2x2 matrix [[n, t/2], [conj(t)/2, m]]
with n, m integers and t in the dual of the Hurwitz order. Its determinant is
n*m - norm(t)/4, a half-integer; we work throughout with the integer invariant

    two_det(T) = 2*det(T) = 2*n*m - norm(t)/2,

which is what every coefficient formula in this package is indexed by.

The class key (two_det(T), content of T) of an index (n, m, t) depends only
on n*m, gcd(n, m) and the histogram key _hkey(t) = (norm(t), gcd(t), parity
of sum(t)/gcd(t)). _class_key is that fold, and the one statement of the
content rule (_content) and of the class key: TMatrix.class_key, the walk
and the counts all read it. Each reader bounds its block itself:
TMatrix.is_psd by two_det >= 0, keyed_walk by norm <= 4nm on its lines and
runs, and class_counts by the prefix of norm <= 4nm of its histogram.
keyed_walk uses the None of _class_key only as the key of ids outside a block.

keyed_walk is the one lattice walk in the library. It builds the dual ball
of radius 4N^2 once, as its lines: the runs of d for fixed (a, b, c). A
line is held as its text and its shape (norm, gcd and coordinate sum mod
2 gcd of (a, b, c)), which fixes the histogram key of every vector on it.
Block (n, m) of the depth-N box is the sub-ball of radius 4nm: its lines,
and per shape the run of d it reaches there, each vector of the run with
a histogram id that stands for _hkey(t). The ids are folded once per block
into class keys, so every index is keyed by a list lookup, with no
TMatrix built and no Python work per vector. iter_keyed expands the lines
by their runs one index at a time, as the texts "n,m,a,b,c,d" that
parse_tmatrix reads, and enumerate_psd parses them into index matrices.
class_counts folds the same histogram keys, counted from Jacobi's
r4(r) = 8 sigma_1(r) - 32 sigma_1(r/4) instead of walked.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import compress
from math import gcd, isqrt
from typing import NamedTuple

from .exactnum import sigma_row
from .quatlat import QuatCoord

__all__ = [
    "TMatrix",
    "class_counts",
    "enumerate_psd",
    "iter_keyed",
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


def keyed_walk(N: int):
    """The depth-N box as blocks of lines over one ball: a generator of
    (n, m, lines, shapes, runs, keys), one per (n, m) in lex order.

    The dual ball norm(t) <= 4N^2 is walked as its lines, the runs of d for
    fixed (a, b, c), in lex order. A line is held as its text "a,b,c," and
    the id of its shape (norm, g, s mod 2g), with g the gcd and s the
    coordinate sum of (a, b, c): gcd(t) = gcd(g, d) divides g, so the shape
    fixes the histogram key _hkey(t) of every vector t on the line. The
    shapes of a row of c are fixed in turn by a^2 + b^2, gcd(a, b) and
    (a + b) mod 2 gcd(a, b), so each such row is shaped once and the other
    rows reuse it.

    The psd condition is norm(t) <= 4nm (for n*m = 0 it leaves t = 0 only),
    so block (n, m) is the sub-ball of radius r = 4nm: lines and shapes are
    its lines, in lex order, and their shape ids. runs maps each shape of
    norm <= r to its run (ds, ids): the range of the d with
    |d| <= isqrt(r - norm) that make a+b+c+d even, and the histogram ids of
    their vectors. keys[h] is the class key of (n, m, t) for every t of
    histogram id h, or None when t lies outside the block. The sub-balls are
    nested by radius, so each is filtered from the next larger one by the
    norms of its shapes, and each radius is kept once. Each shape's run is
    made once, at its full reach isqrt(4N^2 - norm); a run is symmetric
    about 0, so its part at radius r is its middle slice, the i entries
    below -isqrt(r - norm) cut from each end.
    """
    if N < 0:
        raise ValueError("keyed_walk: depth must be >= 0")
    R = 4 * N * N
    lines, line_shapes, shapes, c_rows = [], [], {}, {}
    ra = isqrt(R)
    for a in range(-ra, ra + 1):
        rb = isqrt(R - a * a)
        for b in range(-rb, rb + 1):
            nab, g_ab, s_ab = a * a + b * b, gcd(a, b), a + b
            rc = isqrt(R - nab)
            cs = range(-rc, rc + 1)
            lines += map(f"{a},{b},{{}},".format, cs)
            # g | g_ab, so s mod 2g is fixed by s_ab mod 2 g_ab (x % 1 = 0
            # stands for g = 0, t = (0, 0, 0, d))
            if (key := (nab, g_ab, s_ab % (2 * g_ab or 1))) not in c_rows:
                c_rows[key] = [
                    shapes.setdefault(
                        (nab + c * c, g := gcd(g_ab, c), (s_ab + c) % (2 * g or 1)), len(shapes)
                    )
                    for c in cs
                ]
            line_shapes += c_rows[key]
    # each shape's run at its full reach: d has the parity of s, and as R is
    # even, no run is empty
    index, runs, sub = {}, [], {}
    for norm, g, s in shapes:
        rd = isqrt(R - norm)
        ds = range(-rd + (rd + s) % 2, rd + 1, 2)
        hkeys = ((norm + d * d, g_t := gcd(g, d), g_t and (s + d) // g_t % 2) for d in ds)
        runs.append((ds, [index.setdefault(hkey, len(index)) for hkey in hkeys]))
    # each sub-ball from the next larger one, and the middle of each run
    for r in sorted({4 * n * m for n in range(N + 1) for m in range(N + 1)}, reverse=True):
        keep = bytes(map([shape[0] <= r for shape in shapes].__getitem__, line_shapes))
        lines, line_shapes = list(compress(lines, keep)), list(compress(line_shapes, keep))
        at_r = {}
        for h, (norm, _, _) in enumerate(shapes):
            if norm <= r:
                ds, ids = runs[h]
                i = bisect_left(ds, -isqrt(r - norm))
                j = len(ds) - i
                at_r[h] = ds[i:j], ids[i:j]
        sub[r] = lines, line_shapes, at_r

    def blocks():
        for n in range(N + 1):
            for m in range(N + 1):
                nm, g_nm = n * m, gcd(n, m)
                yield n, m, *sub[4 * nm], [_class_key(nm, g_nm, hkey) for hkey in index]

    return blocks()


def iter_keyed(N: int):
    """Yield (text, key) for every index of the depth-N box in (n, m, t) lex
    order: text is the index as "n,m,a,b,c,d", which parse_tmatrix reads,
    and key its class key. keyed_walk, each line expanded by its run."""
    return (
        (f"{n},{m},{line}{d}", keys[h])
        for n, m, lines, shapes, runs, keys in keyed_walk(N)
        for line, shape in zip(lines, shapes)
        for d, h in zip(*runs[shape])
    )


def enumerate_psd(N: int) -> tuple[TMatrix, ...]:
    """All psd index matrices with n <= N and m <= N, in (n, m, t) lex order:
    the texts of iter_keyed parsed, built anew on each call. Its length is
    the total of class_counts(N)."""
    return tuple(parse_tmatrix(text) for text, _ in iter_keyed(N))


def class_counts(N: int) -> dict[tuple[int, int], int]:
    """{class key: number of indices} over the depth-N box, counted from
    Jacobi's four-square theorem without walking a lattice.

    Each (n, m) block is the dual ball norm(t) <= 4nm, and the class key of
    (n, m, t) is a function of n*m, gcd(n, m) and the histogram key
    _hkey(t) (_class_key), so a histogram of those keys over the ball of
    radius 4N^2 folds into the counts.

    Z^4 holds r4(r) = 8 sigma_1(r) - 32 sigma_1(r/4) vectors of norm r, read
    off one sigma_row, of which P(r) = r4(r) - sum(P(r / g^2) for g >= 2
    with g^2 | r) are primitive. Write t = g*u with g = gcd(t) and u
    primitive: as x = x^2 mod 2, s / g has the parity of norm(u), so t is
    dual exactly when g * norm(u) is even, and the histogram holds P(norm(u))
    vectors of key (g^2 norm(u), g, norm(u) mod 2) for each such pair, and
    one of key (0, 0, 0), t = 0. Each block (n, m) then folds in the keys
    of norm <= 4nm, a prefix of the histogram sorted by norm.
    """
    if N < 0:
        raise ValueError("class_counts: depth must be >= 0")
    R = 4 * N * N
    # prim[r] is r4(r), and P(r) once the loop below has passed r
    s1 = sigma_row(1, R)
    prim = [8 * x - (32 * s1[r // 4] if r % 4 == 0 else 0) for r, x in enumerate(s1)]
    hist = Counter({(0, 0, 0): 1})
    for u in range(1, R + 1):
        if not prim[u]:  # 8 | u: no primitive vector has this norm
            continue
        for g in range(1, isqrt(R // u) + 1):
            if g > 1:
                prim[g * g * u] -= prim[u]
            if g * u % 2 == 0:
                hist[g * g * u, g, u % 2] += prim[u]
    items = sorted(hist.items())
    norms = [hkey[0] for hkey, _ in items]
    out = Counter()
    blocks = Counter(
        (n * m, gcd(n, m)) for n in range(N + 1) for m in range(N + 1)
    )
    for (nm, g_nm), mult in blocks.items():
        for hkey, count in items[: bisect_right(norms, 4 * nm)]:
            out[_class_key(nm, g_nm, hkey)] += mult * count
    return dict(out)
