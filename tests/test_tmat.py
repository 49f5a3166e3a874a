"""Index matrices: determinant invariant, content, psd cone, and the
enumeration and counts of the box (qmf.box)."""

import hashlib
import random
from collections import Counter
from functools import cache
from math import gcd

import pytest

from box_oracle import ZERO_INDEX, iter_dual, whole_box
from qmf.box import class_counts, iter_keyed, keyed_walk
from qmf.exactnum import divisors
from qmf.quatlat import QuatCoord
from qmf.tmat import TMatrix, _hkey, enumerate_psd, parse_tmatrix

T0 = parse_tmatrix("1,1,1,1,0,0")
I2 = parse_tmatrix("1,1,0,0,0,0")


def qmul(x, y):
    """Hamilton product, used only by the psd oracle below."""
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


def qconj(x):
    return (x[0], -x[1], -x[2], -x[3])


def box_size(N):
    """The number of indices in the depth-N box, counted without the box."""
    return sum(class_counts(N).values())


def form_value(T, x1, x2):
    """The hermitian form n*N(x1) + Re(conj(x1) t x2) + m*N(x2)."""
    n1 = sum(v * v for v in x1)
    n2 = sum(v * v for v in x2)
    cross = qmul(qmul(qconj(x1), tuple(T.t)), x2)[0]
    return T.n * n1 + cross + T.m * n2


def test_two_det_frozen():
    assert T0.two_det() == 1
    assert I2.two_det() == 2
    assert parse_tmatrix("1,3,1,1,0,0").two_det() == 5
    assert parse_tmatrix("6,18,6,6,0,0").two_det() == 180
    assert ZERO_INDEX.two_det() == 0
    assert parse_tmatrix("1,1,2,0,0,0").two_det() == 0


def test_epsilon_frozen():
    # the content eps(T) is the second entry of the class key
    assert T0.class_key()[1] == 1
    assert parse_tmatrix("2,2,2,2,0,0").class_key()[1] == 2
    assert parse_tmatrix("6,18,6,6,0,0").class_key()[1] == 6
    # content blocked by parity: halving (2,0,0,0) leaves the dual lattice
    assert parse_tmatrix("2,2,2,0,0,0").class_key()[1] == 1
    assert parse_tmatrix("3,0,0,0,0,0").class_key()[1] == 3
    assert parse_tmatrix("4,2,2,2,0,0").class_key()[1] == 2


def test_epsilon_definition_brute():
    # oracle: try every candidate divisor downward, at every nonzero index of
    # the depth-6 box and at its 2x and 3x multiples, which lie off the box,
    # so the class key is checked here apart from the walk. The oracle reads
    # an index only through gcd(n, m, t) and t, so it runs once per pair,
    # and each scaled t is built once
    @cache
    def content(g, t):
        return next(
            e for e in reversed(divisors(g)) if QuatCoord(*(v // e for v in t)).in_dual()
        )

    @cache
    def times(s, t):
        return QuatCoord(*(s * v for v in t))

    box = whole_box(6)
    assert box[0] == ZERO_INDEX
    for T in box[1:]:
        g = gcd(T.n, T.m, *T.t)
        for s in (1, 2, 3):
            S = T if s == 1 else TMatrix(s * T.n, s * T.m, times(s, T.t))
            best = content(s * g, S.t)
            assert S.class_key() == (S.two_det(), best), S


def test_scaled_matrix_divides_two_det():
    # for d | eps(T), T/d is a valid index matrix and d^2 | two_det(T)
    for T in whole_box(2):
        if T == ZERO_INDEX:
            continue
        e = T.class_key()[1]
        for d in range(1, e + 1):
            if e % d:
                continue
            S = TMatrix(T.n // d, T.m // d, QuatCoord(*(v // d for v in T.t)))
            assert S.t.in_dual()
            assert T.two_det() % (d * d) == 0
            assert S.two_det() == T.two_det() // (d * d)


def test_is_psd_frozen():
    assert ZERO_INDEX.is_psd()
    assert T0.is_psd()
    assert parse_tmatrix("1,1,2,0,0,0").is_psd()  # two_det = 0, still psd
    assert not parse_tmatrix("1,1,2,2,0,0").is_psd()  # two_det = -2
    assert not parse_tmatrix("0,1,1,1,0,0").is_psd()  # zero diagonal, t != 0
    assert not parse_tmatrix("1,0,1,1,0,0").is_psd()
    assert not TMatrix(-1, 2, QuatCoord(0, 0, 0, 0)).is_psd()
    # both diagonal entries negative with n*m > 0: norm(t) <= 4nm holds
    assert not TMatrix(-1, -1, QuatCoord(0, 0, 0, 0)).is_psd()
    assert not TMatrix(-2, -3, QuatCoord(1, 1, 0, 0)).is_psd()
    assert parse_tmatrix("0,5,0,0,0,0").is_psd()


def test_is_psd_oracle_nonnegative_form():
    # psd matrices take nonnegative values at random integer vectors
    rng = random.Random(41)
    box = whole_box(2)
    for _ in range(500):
        T = rng.choice(box)
        x1 = tuple(rng.randrange(-3, 4) for _ in range(4))
        x2 = tuple(rng.randrange(-3, 4) for _ in range(4))
        assert form_value(T, x1, x2) >= 0


def test_not_psd_has_negative_witness():
    # indefinite T with positive diagonal: x1 = -t, x2 = 2n gives 2n*two_det < 0
    found = 0
    for n in range(1, 4):
        for m in range(1, 4):
            for t in iter_dual(4 * n * m + 12):
                T = TMatrix(n, m, t)
                if T.is_psd() or t == QuatCoord(0, 0, 0, 0):
                    continue
                x1 = tuple(-v for v in t)
                x2 = (2 * n, 0, 0, 0)
                val = form_value(T, x1, x2)
                assert val == 2 * n * T.two_det()
                assert val < 0
                found += 1
    assert found > 100


def test_psd_cone_closed_under_addition():
    rng = random.Random(99)
    box = [T for T in whole_box(2)]
    for _ in range(500):
        A = rng.choice(box)
        B = rng.choice(box)
        S = TMatrix(
            A.n + B.n,
            A.m + B.m,
            QuatCoord(*(a + b for a, b in zip(A.t, B.t))),
        )
        assert S.is_psd()


def test_enumerate_psd_counts_frozen():
    assert len(whole_box(0)) == 1
    assert len(whole_box(1)) == 52
    assert len(whole_box(2)) == 1017
    assert len(whole_box(3)) == 8104
    # the (1,1) block alone: zero vector, 24 of norm 2, 24 of norm 4
    block = [T for T in whole_box(1) if T.n == 1 and T.m == 1]
    assert len(block) == 49


def test_box_size_counts_without_enumerating():
    for N in range(5):
        assert box_size(N) == len(whole_box(N))
    assert [box_size(N) for N in range(5, 9)] == [121188, 329905, 780304, 1650105]
    with pytest.raises(ValueError):
        box_size(-1)


def test_class_key():
    assert ZERO_INDEX.class_key() == (0, 0)
    assert parse_tmatrix("3,0,0,0,0,0").class_key() == (0, 3)
    assert parse_tmatrix("0,2,0,0,0,0").class_key() == (0, 2)
    assert T0.class_key() == (1, 1)
    assert parse_tmatrix("2,2,2,2,0,0").class_key() == (4, 2)
    # t/2 = (1, 0, 0, 0) has odd coordinate sum, so 2 is not a content
    assert parse_tmatrix("2,2,2,0,0,0").class_key() == (6, 1)


def test_class_counts_match_box_histogram():
    for N in range(7):
        box = Counter(T.class_key() for T in whole_box(N))
        assert class_counts(N) == box, N
    assert len(class_counts(4)) == 46
    with pytest.raises(ValueError):
        class_counts(-1)


CLASS_COUNTS_SHA256 = {
    7: "c9f6c379b8057e1afc5c32507f264646c89d1899280c369e7aca3f181a8671bf",
    8: "51cefb614426882a08219227345f37f4e5f363cae32ef211cdc4439cea16638f",
    9: "23e892603866ca2fb5dfd1b04d11bb37fc4381487cd0c3cf83ae30fbf622c0f5",
    10: "76dbeb264b8c28eaef07d0b1f841d28e73d0c9bb44f03db77b6c02aa2967a4fd",
    11: "c8b03092d1dceea5a9dd9956e5bd72a488ba8e4ddc7ae768f55e5ffa17211f2d",
    12: "ebc1b76c4a8358f1c0b864010c24609546b14d0f2dd2e928e414ad8234dacec0",
}


def test_class_counts_and_box_size_frozen():
    # past the depths test_class_counts_match_box_histogram can afford:
    # digests of sorted(class_counts(N).items()), recorded from a walk of
    # the dual ball over one t per orbit of sign changes and permutations
    for N, want in CLASS_COUNTS_SHA256.items():
        got = repr(sorted(class_counts(N).items())).encode()
        assert hashlib.sha256(got).hexdigest() == want, N
    assert [box_size(N) for N in range(9, 13)] == [
        3222724, 5872969, 10143504, 16719961
    ]


def test_enumerate_psd_complete_and_ordered():
    box = whole_box(2)
    assert list(box) == sorted(box)
    assert len(set(box)) == len(box)
    assert all(T.is_psd() for T in box)
    members = set(box)
    # completeness: every psd candidate in the range is present
    for n in range(3):
        for m in range(3):
            for t in iter_dual(4 * n * m if n and m else 0):
                T = TMatrix(n, m, t)
                if T.is_psd():
                    assert T in members


def test_enumerate_psd_block_sizes_match_dual_counts():
    N = 3
    box = whole_box(N)
    by_block = {}
    for T in box:
        by_block.setdefault((T.n, T.m), 0)
        by_block[T.n, T.m] += 1
    for n in range(N + 1):
        for m in range(N + 1):
            if n == 0 or m == 0:
                assert by_block[n, m] == 1
            else:
                assert by_block[n, m] == len(list(iter_dual(4 * n * m)))


@cache
def per_radius_box(N):
    """The box as enumerate_psd built it before the keyed walk: one
    enumeration of the dual ball per block radius 4nm, kept for the
    session like whole_box."""
    balls = {}
    out = []
    for n in range(N + 1):
        for m in range(N + 1):
            if n == 0 or m == 0:
                out.append(TMatrix(n, m, QuatCoord(0, 0, 0, 0)))
            else:
                if 4 * n * m not in balls:
                    balls[4 * n * m] = list(iter_dual(4 * n * m))
                out.extend(TMatrix(n, m, t) for t in balls[4 * n * m])
    return tuple(out)


def test_enumerate_psd_is_the_per_radius_box():
    # enumerate_psd parses the texts of the walk, box.iter_keyed
    for N in range(7):
        assert whole_box(N) == per_radius_box(N), N
    for N in range(5):
        assert enumerate_psd(N) == tuple(parse_tmatrix(text) for text, _ in iter_keyed(N)), N


def test_keyed_walk_is_the_box_with_its_class_keys():
    # the keyed walk against the box built independently above, index by
    # index and key by key: each row's text is str(T), which the table
    # renders and enumerate_psd parses, and its key is T.class_key()
    for N in range(7):
        box = per_radius_box(N)
        rows = list(iter_keyed(N))
        assert [text for text, _ in rows] == [str(T) for T in box], N
        assert [key for _, key in rows] == [T.class_key() for T in box], N
        assert Counter(key for _, key in rows) == class_counts(N), N


def test_keyed_walk_blocks():
    # per block, its lines are the texts "a,b,c," of the distinct (a, b, c)
    # of its sub-ball norm(t) <= 4nm in lex order, and the lines times the
    # runs of their shapes are the sub-ball itself; each histogram id stands
    # for one _hkey(t) over the walk, distinct ids for distinct keys, and
    # keys[h] is None exactly for the ids outside the block; the oracle
    # balls are shared by radius
    sub_balls = {}
    for N in range(9):
        blocks = list(keyed_walk(N))
        assert [(n, m) for n, m, *_ in blocks] == [(n, m) for n in range(N + 1) for m in range(N + 1)]
        pairs = set()
        for n, m, lines, shapes, runs, keys in blocks:
            r = 4 * n * m
            if r not in sub_balls:
                ball = list(iter_dual(r))
                prefixes = list(dict.fromkeys(t[:3] for t in ball))
                sub_balls[r] = prefixes, [str(t) for t in ball], [_hkey(t) for t in ball]
            prefixes, texts, hkeys = sub_balls[r]
            assert lines == [f"{a},{b},{c}," for a, b, c in prefixes], (N, n, m)
            # a run for each shape of the block and for no other
            assert set(runs) == set(shapes)
            line_runs = [runs[s] for s in shapes]
            assert [f"{line}{d}" for line, (ds, _) in zip(lines, line_runs) for d in ds] == texts
            pairs.update(zip([h for _, ids in line_runs for h in ids], hkeys))
        hkeys = dict(pairs)
        assert len(hkeys) == len(pairs) and sorted(hkeys) == list(range(len(hkeys)))
        assert len(set(hkeys.values())) == len(hkeys)
        for n, m, *_, keys in blocks:
            assert [key is None for key in keys] == [hkeys[h][0] > 4 * n * m for h in range(len(keys))]
    with pytest.raises(ValueError, match="depth must be >= 0"):
        keyed_walk(-1)


def test_walks_refuse_negative_depth_on_call():
    # the check runs when iter_keyed is called, before any iteration
    with pytest.raises(ValueError, match="depth must be >= 0"):
        iter_keyed(-1)
    with pytest.raises(ValueError):
        enumerate_psd(-1)


def test_parse_tmatrix_errors():
    with pytest.raises(ValueError):
        parse_tmatrix("1,1,1,0,0,0")  # odd parity off-diagonal
    with pytest.raises(ValueError):
        parse_tmatrix("1,1,1,1,0")
    with pytest.raises(ValueError):
        parse_tmatrix("1,1,a,1,0,0")
    T = parse_tmatrix(" 1, 3,1,1,0, 0 ")
    assert T == TMatrix(1, 3, QuatCoord(1, 1, 0, 0))
    assert str(T) == "1,3,1,1,0,0"
