"""The depth-N box of index matrices: walked, counted and written out.

keyed_walk is the one lattice walk in the library. It builds the dual ball
of radius 4N^2 once, as its lines: the runs of d for fixed (a, b, c). A
line is held as its text and its shape (norm, gcd and coordinate sum mod
2 gcd of (a, b, c)), which fixes the histogram key tmat._hkey(t) of every
vector on it. Block (n, m) of the box is the sub-ball of radius 4nm: its
lines, and per shape the run of d it reaches there, each vector with a
histogram id. The ids are folded once per block into class keys
(tmat._class_key), so every index is keyed by a list lookup, with no
TMatrix built and no Python work per vector. iter_keyed expands the lines
by their runs one index at a time, as the texts "n,m,a,b,c,d" that
tmat.parse_tmatrix reads, and table_writer writes a form's rows from them.
class_counts folds the same histogram keys, counted from Jacobi's
r4(r) = 8 sigma_1(r) - 32 sigma_1(r/4) instead of walked.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, compress, repeat
from math import gcd, isqrt

from .exactnum import residue, sigma_row
from .tmat import _class_key

__all__ = ["class_counts", "iter_keyed", "keyed_walk", "table_writer"]

# Characters per write of a table: a write is a system call when stdout is
# unbuffered (python -u, PYTHONUNBUFFERED), so rows are joined into chunks,
# which also bounds the output held at once. A chunk and its UTF-8 copy stay
# below glibc's 128 KiB mmap and trim thresholds, so their memory is reused
# from the heap rather than mapped or trimmed and faulted in anew per write.
_CHUNK_CHARS = 2**16


def keyed_walk(N: int):
    """The depth-N box as blocks of lines over one ball: a generator of
    (n, m, lines, shapes, runs, keys), one per (n, m) in lex order.

    The dual ball norm(t) <= 4N^2 is walked as its lines, the runs of d for
    fixed (a, b, c), in lex order. A line is held as its text "a,b,c," and
    the id of its shape (norm, g, s mod 2g), with g the gcd and s the
    coordinate sum of (a, b, c): gcd(t) = gcd(g, d) divides g, so the shape
    fixes the histogram key tmat._hkey(t) of every vector t on the line. The
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


def class_counts(N: int) -> dict[tuple[int, int], int]:
    """{class key: number of indices} over the depth-N box, counted from
    Jacobi's four-square theorem without walking a lattice.

    Each (n, m) block is the dual ball norm(t) <= 4nm, and the class key of
    (n, m, t) is a function of n*m, gcd(n, m) and the histogram key
    tmat._hkey(t) (_class_key), so a histogram of those keys over the ball
    of radius 4N^2 folds into the counts.

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


# One row of a table, split around the text "a,b,c,d" of t: the part up to
# it formats (n, m), the part after it (num, den, residue). In the JSON rows,
# entries of json.dumps(entries, indent=2), every field is a run of digits,
# commas and minus signs, so quoting it is its JSON encoding.
_CSV_ROW = ('"{},{},', '",{},{}{}\n', ",{}")
_JSON_ROW = (
    '  {{\n    "T": "{},{},',
    '",\n    "coeff": {{\n      "num": "{}",\n      "den": "{}"\n    }}{}\n  }}',
    ',\n    "residue": "{}"',
)


def table_writer(table, N: int, counts: dict, fmt: str, mod):
    """(witness, write) for the table of a MaassTable on the depth-N box of
    class counts counts, in fmt "csv" or "json", with a residue column mod
    mod unless it is None: witness is the text of the first index in box
    order with no residue, or None, and then write(fh) writes the table.
    Row tails are rendered and checked once per class before any write.
    Each block of keyed_walk renders each shape's run once, as "d" + tail
    texts led and joined by the block's prefix, and a line is its text
    "a,b,c," joining its shape's pieces, by C-level maps with no TMatrix or
    Python frame per row. Lines go out in chunks of whole lines of at most
    _CHUNK_CHARS characters, one write each whether or not fh is buffered."""
    if fmt == "csv":
        head = "T,num,den,residue\n" if mod is not None else "T,num,den\n"
        sep, tail = "", ""
        start, rest_fmt, residue_fmt = _CSV_ROW
    else:
        head, sep, tail = "[\n", ",\n", "\n]\n"
        start, rest_fmt, residue_fmt = _JSON_ROW
    rest, bad = {}, set()
    for key in counts:
        c = table.class_coeff(key)
        column = ""
        if mod is not None:
            r = residue(c, mod)
            if r is None:
                bad.add(key)
                continue
            column = residue_fmt.format(r)
        rest[key] = rest_fmt.format(c.numerator, c.denominator, column)
    if bad:
        return next(text for text, key in iter_keyed(N) if key in bad), None
    # the widest row the table can have: the widest prefix, the texts of a,
    # b, c and d (|x| <= 2N, each with a comma at most) and the widest tail
    width = len(sep + start.format(N, N)) + 4 * (len(str(-2 * N)) + 1)
    width += max(map(len, rest.values()))
    chunk_rows = _CHUNK_CHARS // width

    def write(fh):
        fh.write(head)
        for n, m, lines, shapes, runs, keys in keyed_walk(N):
            # only T = 0, the one row of block (0, 0), has no separator
            prefix = (sep if n or m else "") + start.format(n, m)
            tails = [key and rest[key] for key in keys]
            # line.join(rows[h]) is the rows of a line of shape h, each the
            # prefix, the line's text and a row tail
            rows, sizes = {}, {}
            for h, (ds, ids) in runs.items():
                tail_rows = [*map("{}{}".format, ds, map(tails.__getitem__, ids))]
                rows[h] = [prefix, *map(str.__add__, tail_rows[:-1], repeat(prefix)), tail_rows[-1]]
                sizes[h] = len(ds)
            # ends[i] rows precede line i; a chunk is the most whole lines
            # that hold at most chunk_rows rows, and at least one line
            ends = list(accumulate(map(sizes.__getitem__, shapes), initial=0))
            lo = 0
            while lo < len(lines):
                hi = max(bisect_right(ends, ends[lo] + chunk_rows) - 1, lo + 1)
                segments = map(str.join, lines[lo:hi], map(rows.__getitem__, shapes[lo:hi]))
                fh.write("".join(segments))
                lo = hi
        fh.write(tail)

    return None, write
