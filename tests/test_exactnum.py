"""Number-theory primitives: frozen values plus independent oracles."""

import random
from fractions import Fraction
from math import gcd

import pytest

from box_oracle import bernoulli_row, sigma
from qmf import exactnum
from qmf.exactnum import (
    bernoulli,
    divisors,
    factorize,
    is_prime,
    kronecker,
    residue,
    sigma_row,
)

# classical table, checked against the von Staudt-Clausen test below
BERNOULLI_TABLE = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
}


def test_bernoulli_frozen_table():
    for m, val in BERNOULLI_TABLE.items():
        assert bernoulli(m) == val


def test_bernoulli_odd_vanish():
    for m in range(3, 31, 2):
        assert bernoulli(m) == 0


def test_bernoulli_von_staudt_clausen():
    # denominator of B_2m is the product of primes p with (p-1) | 2m
    for m2 in range(2, 32, 2):
        den = 1
        for p in range(2, m2 + 2):
            if is_prime(p) and m2 % (p - 1) == 0:
                den *= p
        assert bernoulli(m2).denominator == den


def test_bernoulli_is_the_recurrence(monkeypatch):
    # the tangent-number formula against the defining recurrence for every
    # m <= 400, from an empty memo filled at the top and one filled step by
    # step
    want = bernoulli_row(400)
    for order in (range(400, -1, -1), range(401)):
        monkeypatch.setattr(exactnum, "_tangent", [0])
        monkeypatch.setattr(exactnum, "_seidel_row", [1])
        assert {m: bernoulli(m) for m in order} == dict(enumerate(want))


def test_bernoulli_negative_raises():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_residue_of_bernoulli_p_minus_one():
    # von Staudt-Clausen: B_(p-1) is not p-integral and p B_(p-1) ≡ -1 mod p
    for p in (5, 7, 11, 13, 691):
        assert residue(bernoulli(p - 1), p) is None
        assert residue(p * bernoulli(p - 1), p) == p - 1


def test_sigma_frozen():
    # sigma_0(12) = 6 counts the divisors
    frozen = {(7, 2): 129, (11, 3): 177148, (1, 3): 4, (3, 4): 73, (0, 12): 6, (13, 1): 1}
    for (m, ell), value in frozen.items():
        assert sigma_row(m, ell)[ell] == sigma(m, ell) == value


def test_sigma_row_is_sigma_at_each_l():
    L = 2000
    for m in range(14):
        assert sigma_row(m, L) == [0] + [sigma(m, ell) for ell in range(1, L + 1)]
        assert sigma_row(m, 0) == [0]


def test_sigma_definition_sweep():
    # independent oracle: divisor lists from a sieve, all exponents m <= 13
    bound = 10_000
    divs = [[] for _ in range(bound + 1)]
    for d in range(1, bound + 1):
        for mult in range(d, bound + 1, d):
            divs[mult].append(d)
    for m in range(14):
        row = sigma_row(m, bound)
        assert all(row[ell] == sum(d**m for d in divs[ell]) for ell in range(1, bound + 1))


def test_sigma_multiplicative():
    rng = random.Random(7)
    pairs = [(rng.randrange(1, 400), rng.randrange(1, 400)) for _ in range(200)]
    coprime = [(a, b) for a, b in pairs if gcd(a, b) == 1]
    for m in (1, 3, 7, 11):
        row = sigma_row(m, max(a * b for a, b in coprime))
        for a, b in coprime:
            assert row[a * b] == row[a] * row[b]


def test_kronecker_frozen():
    assert kronecker(-23, 5) == -1
    assert kronecker(-23, 2) == 1
    assert kronecker(-23, 23) == 0
    assert kronecker(-23, 180) == -1
    assert kronecker(-7, 3) == -1
    assert kronecker(-3, 2) == -1
    assert kronecker(5, 1) == 1
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0
    assert kronecker(-4, -2) == 0


def test_kronecker_euler_criterion():
    # for odd prime p, (a/p) ≡ a^((p-1)/2) mod p
    for p in (3, 5, 7, 11, 13, 19, 23, 31):
        for a in range(-2 * p, 2 * p + 1):
            e = pow(a % p, (p - 1) // 2, p)
            expected = 0 if a % p == 0 else (1 if e == 1 else -1)
            assert kronecker(a, p) == expected


def test_kronecker_multiplicative():
    rng = random.Random(23)
    for _ in range(300):
        a = rng.randrange(-50, 51)
        n1 = rng.randrange(-40, 41)
        n2 = rng.randrange(-40, 41)
        if n1 != 0 and n2 != 0:
            assert kronecker(a, n1) * kronecker(a, n2) == kronecker(a, n1 * n2)
        b = rng.randrange(-50, 51)
        n = rng.randrange(1, 60)
        assert kronecker(a, n) * kronecker(b, n) == kronecker(a * b, n)


def test_kronecker_periodic_mod_8_in_even_part():
    for a in (-23, -7, 1, 9, 17):
        assert kronecker(a, 2) == kronecker(a + 8, 2)


def test_residue_against_brute_force():
    # None exactly when gcd(den, m) > 1, else the one r in range(m) with
    # m | num - r den; zero, negatives and shared factors are all drawn
    rng = random.Random(23)
    values = [Fraction(0), Fraction(-1), Fraction(7, 6), Fraction(-25, 12)]
    for _ in range(200):
        den = rng.choice((1, 2, 6, 30, 49, rng.randrange(1, 10**4)))
        values.append(Fraction(rng.randrange(-(10**6), 10**6), den))
    for m in range(2, 61):
        for x in values:
            got = residue(x, m)
            if gcd(x.denominator, m) > 1:
                assert got is None, (x, m)
            else:
                want = [r for r in range(m) if (x.numerator - r * x.denominator) % m == 0]
                assert [got] == want, (x, m)
    assert residue(-3, 5) == 2
    for m in (1, 0, -7):
        with pytest.raises(ValueError, match=f"modulus must be >= 2, got {m}"):
            residue(Fraction(1, 3), m)


def test_is_prime_against_sieve():
    limit = 2000
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, limit + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    for n in range(limit + 1):
        assert is_prime(n) == flags[n]


def test_is_prime_large_and_tricky():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert is_prime(43867)
    assert is_prime(3617)
    assert not is_prime(174611)  # 283 * 617
    assert not is_prime(561)  # Carmichael
    assert not is_prime(2**61 + 1)
    assert not is_prime(-7)


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_is_prime_strong_pseudoprimes_to_small_bases():
    # psi_12 passes Miller-Rabin to the bases 2..37 and needs base 41;
    # psi_13 passes all bases up to 41 and needs the strong Lucas test
    assert not is_prime(PSI_12)
    assert not is_prime(PSI_13)
    assert factorize(PSI_12) == {399165290221: 1, 798330580441: 1}
    assert factorize(PSI_13) == {1287836182261: 1, 2575672364521: 1}
    for e in (89, 107, 127, 521):  # Mersenne primes past psi_13
        assert is_prime(2**e - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    assert not is_prime((2**89 - 1) ** 2)
    assert not is_prime(2**89 + 1)


def test_strong_lucas_pseudoprimes():
    # the composites below 26000 that pass the Selfridge strong Lucas test
    # (OEIS A217255); every prime in range passes it
    small = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    odd = [n for n in range(43, 26000, 2) if all(n % q for q in small)]
    passed = [n for n in odd if exactnum._strong_lucas(n)]
    primes = [n for n in odd if is_prime(n)]
    assert [n for n in passed if n not in primes] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
    ]
    assert set(primes) <= set(passed)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(174611) == {283: 1, 617: 1}
    assert factorize(161280) == {2: 9, 3: 2, 5: 1, 7: 1}
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 10**6)
        _assert_factorization(n, factorize(n))
    with pytest.raises(ValueError):
        factorize(0)


def _assert_factorization(n, f):
    prod = 1
    for p, e in f.items():
        assert is_prime(p) and e >= 1
        prod *= p**e
    assert prod == n


def test_factorize_large_cofactors():
    # prime cofactors far past trial division, squares and products of
    # two primes above the trial limit, and Bernoulli numerators
    p61, p31 = 2**61 - 1, 2**31 - 1
    assert factorize(73 * 109 * 26315271553053477373) == {
        73: 1,
        109: 1,
        26315271553053477373: 1,
    }
    assert factorize(p61 * p31) == {p31: 1, p61: 1}
    assert factorize(999983**2 * 1009) == {1009: 1, 999983: 2}
    assert factorize(1000003 * 1000033) == {1000003: 1, 1000033: 1}
    assert factorize(997 * 991) == {991: 1, 997: 1}
    for k in range(36, 52, 2):
        n = abs(((2 ** (k - 2) - 1) * bernoulli(k - 2) / (k - 2)).numerator)
        f = factorize(n)
        assert list(f) == sorted(f)
        _assert_factorization(n, f)


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 5000)
        dl = divisors(n)
        assert list(dl) == sorted(dl)
        assert all(n % d == 0 for d in dl)
        assert len(dl) == sum(1 for d in range(1, n + 1) if n % d == 0)
    with pytest.raises(ValueError):
        divisors(0)
