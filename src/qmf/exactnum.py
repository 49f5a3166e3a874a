"""Exact rational arithmetic and elementary number theory.

All arithmetic in this package is exact: rationals are `fractions.Fraction`
over Python's arbitrary-precision integers, and nothing here ever touches a
float. Every "mod m" fact about a rational is read from `residue`, its one
reduction. Divisor sums come as one sieved row (`sigma_row`).
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt

__all__ = [
    "bernoulli",
    "divisors",
    "factorize",
    "is_prime",
    "kronecker",
    "residue",
    "sigma_row",
]


# _tangent[n] is the tangent number T_n = tan^(2n-1)(0) for 1 <= n < len;
# _seidel_row is row 2n of the Seidel-Entringer triangle for that last n
_tangent: list[int] = [0]
_seidel_row: list[int] = [1]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m, with the convention B_1 = -1/2.

    B_0 = 1 and B_m = 0 for odd m > 1. For m = 2n, B_m = (-1)^(n-1) 2n T_n /
    (4^n (4^n - 1)) (Brent and Harvey, "Fast computation of Bernoulli,
    tangent and secant numbers", arXiv:1108.0286), so only integers are
    summed. The tangent number T_n is the last entry of row 2n - 1 of the
    Seidel-Entringer triangle, in which each row is 0 followed by the
    running sums of the row before it, reversed. The tangent numbers and
    the last row are memoized, so a call past them adds two rows per n.
    """
    if m < 0:
        raise ValueError("bernoulli: index must be >= 0")
    if m < 2:
        return Fraction(1) if m == 0 else Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    n = m // 2
    row = _seidel_row
    while len(_tangent) <= n:
        odd = list(accumulate(reversed(row), initial=0))
        _tangent.append(odd[-1])
        row[:] = accumulate(reversed(odd), initial=0)
    four_n = 4**n
    sign = 1 if n % 2 else -1
    return Fraction(sign * m * _tangent[n], four_n * (four_n - 1))


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n > 0, sorted ascending, from factorize(n); not
    memoized."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def sigma_row(m: int, L: int) -> list[int]:
    """[sigma_m(l) for l = 0..L], sigma_m(0) = 0, sieved in O(L log L) adds."""
    row = [0] * (L + 1)
    for d in range(1, L + 1):
        dm = d**m  # added to every multiple of d
        row[d::d] = [x + dm for x in row[d::d]]
    return row


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a / n), defined for every pair of integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    r = 1
    if n < 0:
        n = -n
        if a < 0:
            r = -1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            r = -r
    # n now odd and positive: Jacobi symbol with quadratic reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                r = -r
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            r = -r
        a %= n
    return r if n == 1 else 0


def residue(x, m: int) -> int | None:
    """The rational x (an int or a Fraction) mod m, in 0..m-1, or None when
    the denominator of x shares a factor with m. For a prime p, residue(x, p)
    is None exactly when v_p(x) < 0 and 0 exactly when v_p(x) > 0."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        inv = pow(x.denominator, -1, m)
    except ValueError:
        return None
    return x.numerator * inv % m


# Miller-Rabin with the first 13 prime bases is exact below psi_13, the
# least composite that is a strong pseudoprime to all of them (Sorenson and
# Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality test: Miller-Rabin to the first 13 prime bases, exact below
    psi_13 = 3317044064679887385961981 (about 3.3e24); from psi_13 on, also a
    strong Lucas test, which makes it the Baillie-PSW test (no composite is
    known to pass it)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 with no prime factor
    up to 41, with Selfridge's parameters: the first D in 5, -7, 9, -11, ...
    with kronecker(D, n) = -1, P = 1 and Q = (1 - D)/4."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := kronecker(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        x %= n
        return (x if x % 2 == 0 else x + n) // 2

    # U_k, V_k and Q^k mod n, from k = 1 up to k = d along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


_TRIAL_LIMIT = 1000


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n > 0 as {prime: exponent}, ascending.

    Trial division removes the prime factors below 1000 and stops early once
    the cofactor is below the square of the next trial divisor. A cofactor
    left over is recorded as it is when is_prime accepts it, and otherwise
    split by Brent's variant of Pollard's rho until every part is prime.
    """
    if n <= 0:
        raise ValueError("factorize: argument must be positive")
    out: dict[int, int] = {}
    f = 2
    while f < _TRIAL_LIMIT and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < f * f or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_factor(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def _rho_factor(n: int) -> int:
    """A proper divisor of n, an odd composite.

    Brent's cycle search for x -> x^2 + c mod n, batching the gcd over 128
    steps and retrying with the next c when a batch overshoots to n.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
