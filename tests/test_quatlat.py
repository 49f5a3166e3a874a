"""Dual-lattice arithmetic: parity membership and ball enumeration."""

import random

import pytest

from box_oracle import iter_dual
from qmf.quatlat import QuatCoord


def brute_dual_ball(R):
    """Independent oracle: plain box scan with parity filter, no pruning."""
    from math import isqrt

    r = isqrt(R)
    out = []
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            for c in range(-r, r + 1):
                for d in range(-r, r + 1):
                    if a * a + b * b + c * c + d * d <= R and (a + b + c + d) % 2 == 0:
                        out.append(QuatCoord(a, b, c, d))
    return sorted(out)


def test_norm_conj():
    t = QuatCoord(1, -2, 3, 0)
    assert t.norm() == 14
    assert QuatCoord(0, 0, 0, 0).norm() == 0


def test_in_dual_parity():
    assert QuatCoord(1, 1, 0, 0).in_dual()
    assert QuatCoord(2, 0, 0, 0).in_dual()
    assert QuatCoord(1, 1, 1, 1).in_dual()
    assert not QuatCoord(1, 0, 0, 0).in_dual()
    assert not QuatCoord(0, 1, 1, 1).in_dual()
    assert QuatCoord(0, 0, 0, 0).in_dual()


def test_dual_norm_always_even():
    for t in iter_dual(50):
        assert t.norm() % 2 == 0


def test_dual_closed_under_addition():
    rng = random.Random(3)
    vecs = list(iter_dual(20))
    for _ in range(300):
        s = rng.choice(vecs)
        t = rng.choice(vecs)
        u = QuatCoord(s.a + t.a, s.b + t.b, s.c + t.c, s.d + t.d)
        assert u.in_dual()


def test_enumerate_dual_counts_frozen():
    assert len(list(iter_dual(0))) == 1
    assert len(list(iter_dual(1))) == 1  # norm-1 vectors have odd coordinate sum
    assert len(list(iter_dual(2))) == 25
    assert len(list(iter_dual(3))) == 25
    assert len(list(iter_dual(4))) == 49
    counts = {8: 169, 12: 409, 16: 625, 24: 1465, 32: 2593, 36: 3337, 48: 5689, 64: 10009}
    for R, n in counts.items():
        assert len(list(iter_dual(R))) == n


def test_enumerate_dual_matches_brute_scan():
    for R in range(31):
        assert list(iter_dual(R)) == brute_dual_ball(R)


def test_enumerate_dual_order_and_uniqueness():
    got = list(iter_dual(40))
    assert got == sorted(got)
    assert len(got) == len(set(got))


def test_shell_counts_match_divisor_formula():
    # the count of vectors of norm 2n is 24 times the sum of odd divisors
    # of n (the classical 4-dimensional checkerboard theta series)
    from qmf.exactnum import divisors

    ball = list(iter_dual(40))
    shell = {}
    for t in ball:
        shell[t.norm()] = shell.get(t.norm(), 0) + 1
    for n in range(1, 21):
        expected = 24 * sum(d for d in divisors(n) if d % 2 == 1)
        assert shell.get(2 * n, 0) == expected


def test_enumerate_dual_negative_raises():
    with pytest.raises(ValueError):
        list(iter_dual(-1))
