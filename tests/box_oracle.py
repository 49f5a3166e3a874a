"""Index-by-index constructions, as oracles for the table and class code.

The ring of whole expansions below (zero, constant, add, sub, scale, mul,
siegel_phi) is the box arithmetic qmf computed its forms with before they
moved to one-variable Maass tables; the library keeps only the read-only
FourierExpansion container. The forms built with it multiply whole
expansions, so they share no code path with the table product rule or
with the table-only Ramanujan certificate, and serve as their oracle.

lift is the Maass lift of any table, one index of the box at a time
through MaassTable.coeff: the oracle of build_form, which lifts a named
form's table one class at a time.

product_row states the table product rule one l at a time; paper_rows
reads with it the rows of X10, X12 and X14 as the paper defines them,
rational combinations of Eisenstein series and E4 X10, as the oracle of
the library's eta rows. naive_mul is the q-series product one term at a
time, as the oracle of forms._mul, which forms it as one big-integer
product of integer rows.

bernoulli_row is the defining recurrence of the Bernoulli numbers, in
Fraction, as the oracle of exactnum.bernoulli, which reads tangent numbers.

iter_dual is the dual ball one vector at a time, as nested ranges pruned by
the norm budget: the oracle of the ball and sub-balls box.keyed_walk builds.

sigma is the divisor power sum from its definition, sharing no code with
exactnum's divisors, factorize or sigma_row. star_primes lists the primes
at which congr.star_condition holds at a weight, from the prime factors of
the star quantity's numerator.

The elliptic series below (eisenstein_q from the sigma formula, tau and
tau_star from the 24th power of Euler's pentagonal series) are stated
independently of the Eisenstein and X14 tables, whose Siegel restriction
and first Fourier-Jacobi row they check. cusp_rows states the rows of X10,
X12 and X14 as eta products in integers, independently of every table.

sweep and the verdicts below sweep the depth-N box one index at a time,
reading each named form's table through congr.form_table (so a test that
patches it sees the same tables as the verifiers). They are the sweeps the
verifiers ran before they checked one value per class, and serve as the
oracle of the class sweeps; cong_mod is the Verdict of one sweep.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, lcm

from qmf import congr
from qmf.congr import Verdict, star_condition
from qmf.exactnum import bernoulli, factorize, is_prime, kronecker
from qmf.fexp import FourierExpansion
from qmf.forms import MaassTable, _star_q1, build_form, form_table
from qmf.quatlat import QuatCoord
from qmf.series import express_in_e4_e6
from qmf.tmat import TMatrix, enumerate_psd

# The zero index, T = 0: the class (0, 0), whose coefficient is the constant.
ZERO_INDEX = TMatrix(0, 0, QuatCoord(0, 0, 0, 0))


def bernoulli_row(m):
    """[B_0, ..., B_m] by the recurrence sum_{j<=n} C(n+1, j) B_j = 0."""
    B = [Fraction(1)]
    for n in range(1, m + 1):
        B.append(Fraction(-sum(comb(n + 1, j) * B[j] for j in range(n)), n + 1))
    return B


def sigma(m, n):
    """sigma_m(n), the sum of d^m over the divisors d of n >= 0, from the
    definition: each pair of divisors d, n/d with d <= sqrt(n); 0 at n = 0."""
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**m + ((n // d) ** m if d * d != n else 0)
    return total


def star_primes(k):
    """The primes >= 5 at which star_condition holds at weight k, ascending:
    the candidates are the prime factors of the numerator of _star_q1(k) =
    (2^(k-2)-1) B_(k-2) / (k-2), as a prime outside it has valuation 0
    there. An odd weight or one below 4 raises ValueError."""
    q1 = _star_q1(k)
    return [p for p in factorize(abs(q1.numerator)) if p >= 5 and star_condition(k, p)]


def iter_dual(R):
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


def eisenstein_q(k, prec):
    """The weight-k level-1 Eisenstein series to q^prec as a coefficient
    tuple, constant term 1: 1 - (2k/B_k) sum sigma_(k-1)(n) q^n."""
    c = Fraction(-2 * k) / bernoulli(k)
    return (Fraction(1),) + tuple(c * sigma(k - 1, n) for n in range(1, prec + 1))


def pentagonal(prec):
    """Euler's product prod_{n >= 1} (1 - q^n) to q^prec, from the
    pentagonal number theorem: sum over k of (-1)^k q^(k(3k-1)/2)."""
    e = [0] * (prec + 1)
    e[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= prec:
        s = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= prec:
                e[g] += s
        k += 1
    return e


def pmul(a, b):
    """The product of two integer q-series, to the shorter precision."""
    prec = min(len(a), len(b)) - 1
    out = [0] * (prec + 1)
    for i, ai in enumerate(a[: prec + 1]):
        if ai:
            for j in range(prec - i + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def v_op(f, m):
    """f|V_m = f(q^m), to the precision of f: its coefficient at l is
    f[l / m] when m | l and 0 otherwise."""
    out = [0] * len(f)
    out[::m] = f[: (len(f) - 1) // m + 1]
    return out


def eta24_oracle(prec):
    """Independent tau oracle: 24th power of the pentagonal-number series."""
    e = pentagonal(prec)
    e2 = pmul(e, e)
    e4 = pmul(e2, e2)
    e8 = pmul(e4, e4)
    e16 = pmul(e8, e8)
    e24 = pmul(e16, e8)
    return [0] + e24[:prec]  # shift: the weight-12 cusp form starts at q^1


def cusp_rows(prec):
    """The first Fourier-Jacobi rows of X10, X12 and X14 to l = prec, in
    integers, from eta products alone: R_X10 = f8 - 16 f8|V2, R_X12 = f10 +
    32 f10|V2 and R_X14 = Delta - 2^12 Delta|V4, with f8 = eta(z)^8 eta(2z)^8
    (LMFDB 2.8.a.a), f10 = f8 (2 E2(2z) - E2(z)) (LMFDB 2.10.a.a) and Delta
    = eta(z)^24. They share no code with the library's Eisenstein rows,
    normalizing constants or q-series product."""
    e = pentagonal(prec)
    p = pmul(e, v_op(e, 2))
    for _ in range(3):
        p = pmul(p, p)
    f8 = [0] + p[:prec]  # eta(z)^8 eta(2z)^8 = q prod (1 - q^n)^8 (1 - q^2n)^8
    # 2 E2(2z) - E2(z) = 1 + 24 sum (sigma_1(n) - 2 sigma_1(n/2)) q^n
    s1 = [0] * (prec + 1)
    for d in range(1, prec + 1):
        for n in range(d, prec + 1, d):
            s1[n] += d
    e2 = [1] + [24 * (s1[n] - (2 * s1[n // 2] if n % 2 == 0 else 0)) for n in range(1, prec + 1)]
    f10 = pmul(f8, e2)
    delta = eta24_oracle(prec)
    return {
        "X10": [x - 16 * y for x, y in zip(f8, v_op(f8, 2))],
        "X12": [x + 32 * y for x, y in zip(f10, v_op(f10, 2))],
        "X14": [x - 4096 * y for x, y in zip(delta, v_op(delta, 4))],
    }


@lru_cache(maxsize=None)
def _tau_row(prec):
    return tuple(eta24_oracle(prec))


def tau(n):
    """Ramanujan's tau(n) for 0 <= n (tau(0) = 0), from eta24_oracle to
    q^400, one row shared by every test, or to q^n past that."""
    if n < 0:
        raise ValueError("tau: index must be >= 0")
    return _tau_row(max(n, 400))[n]


def tau_star(ell):
    """tau(ell) - 2^12 tau(ell/4), 0 at ell = 0."""
    return tau(ell) - (4096 * tau(ell // 4) if ell % 4 == 0 else 0)


@lru_cache(maxsize=None)
def whole_box(N):
    """enumerate_psd(N), kept for the session: the library builds the box
    anew on each call and keeps none of it."""
    return enumerate_psd(N)


def lift(table, N):
    """The Maass lift of table on the depth-N box, index by index."""
    return FourierExpansion(table.weight, N, {T: table.coeff(T) for T in whole_box(N)})


# The FourierExpansion members these functions replace: the library's
# expansions are read-only containers and define none of them.
RING_MEMBERS = (
    "zero",
    "constant",
    "__add__",
    "__sub__",
    "scale",
    "__mul__",
    "__rmul__",
    "siegel_phi",
    "_int_blocks",
)


def zero(weight, N):
    return FourierExpansion(weight, N, {})


def constant(value, N):
    """The weight-0 constant value."""
    return FourierExpansion(0, N, {ZERO_INDEX: Fraction(value)})


def add(f, g):
    """f + g on the smaller of the two boxes."""
    if f.weight != g.weight:
        raise ValueError(f"weight mismatch in sum: {f.weight} vs {g.weight}")
    N = min(f.N, g.N)
    out = {T: c for T, c in f.items() if T.n <= N and T.m <= N}
    for T, c in g.items():
        if T.n <= N and T.m <= N:
            out[T] = out.get(T, Fraction(0)) + c
    return FourierExpansion(f.weight, N, out)


def sub(f, g):
    return add(f, scale(g, -1))


def scale(f, c):
    c = Fraction(c)
    return FourierExpansion(f.weight, f.N, {T: c * v for T, v in f.items()})


def mul(f, g):
    """The product f * g on the smaller of the two boxes.

    Products are exact on the result box: every psd decomposition
    T = T1 + T2 has parts with diagonal entries bounded by those of T, so
    truncation loses nothing. Denominators are cleared once per factor and
    the double support loop runs over plain integer tuples grouped by
    diagonal block; Fractions are rebuilt only for the final nonzero totals.
    """
    N = min(f.N, g.N)
    blocks1, den1 = _int_blocks(f)
    blocks2, den2 = _int_blocks(g)
    acc = {}
    for (n1, m1), items1 in blocks1.items():
        for (n2, m2), items2 in blocks2.items():
            n = n1 + n2
            m = m1 + m2
            if n > N or m > N:
                continue
            tacc = acc.setdefault((n, m), {})
            for (a1, b1, c1, d1), v1 in items1:
                for (a2, b2, c2, d2), v2 in items2:
                    key = (a1 + a2, b1 + b2, c1 + c2, d1 + d2)
                    prev = tacc.get(key)
                    tacc[key] = v1 * v2 if prev is None else prev + v1 * v2
    den = den1 * den2
    out = {}
    for (n, m), tacc in acc.items():
        for tk, v in tacc.items():
            if v:
                out[TMatrix(n, m, QuatCoord._make(tk))] = Fraction(v, den)
    return FourierExpansion(f.weight + g.weight, N, out)


def _int_blocks(f):
    """Group f's support by diagonal (n, m), clearing denominators to ints."""
    items = f.items()
    den = 1
    for _, c in items:
        den = lcm(den, c.denominator)
    blocks = {}
    for T, c in items:
        blocks.setdefault((T.n, T.m), []).append(
            (tuple(T.t), c.numerator * (den // c.denominator))
        )
    return blocks, den


def product_row(f, g, L):
    """The first Fourier-Jacobi row of the product of the tables f and g to
    l = L, one l at a time: R(l) = sum_j f0(j) R_g(l - 2j) + R_f(l - 2j) g0(j),
    f0 and g0 the factors' Siegel restrictions read from their lifts. It
    shares no code with the library's q-series product."""
    Rf, Rg = f.R, g.R
    f0 = [f.class_coeff((0, j)) for j in range(L // 2 + 1)]
    g0 = [g.class_coeff((0, j)) for j in range(L // 2 + 1)]
    return tuple(
        sum(f0[j] * Rg[l - 2 * j] + Rf[l - 2 * j] * g0[j] for j in range(l // 2 + 1))
        for l in range(L + 1)
    )


def paper_rows(L):
    """The first Fourier-Jacobi rows of X10, X12 and X14 to l = L from the
    paper's definitions, X10 = (E4 E6 - E10) 17/161280, X12 = (441/691 E4^3
    + 250/691 E6^2 - E12) 21421/203212800 and X14 = E4 X10, with E4^3 read
    as E8 E4 (E8 = E4^2 spans the weight-8 forms): each product's row by
    product_row from the Eisenstein tables, and X14's from that X10 row.
    They share no code with the library's eta rows."""
    e = {k: form_table(f"E{k}H", L) for k in (4, 6, 8, 10, 12)}
    x10 = zip(product_row(e[4], e[6], L), e[10].R)
    x12 = zip(product_row(e[8], e[4], L), product_row(e[6], e[6], L), e[12].R)
    u, v = Fraction(441, 691), Fraction(250, 691)
    rows = {
        "X10": tuple(Fraction(17, 161280) * (a - b) for a, b in x10),
        "X12": tuple(Fraction(21421, 203212800) * (u * a + v * b - c) for a, b, c in x12),
    }
    rows["X14"] = product_row(e[4], MaassTable(10, Fraction(0), rows["X10"]), L)
    return rows


def naive_mul(a, b):
    """The product of two truncated q-series to the shorter precision, one
    term at a time, in Fractions: c(l) = sum_{i <= l} a(i) b(l - i)."""
    n = min(len(a), len(b))
    return tuple(
        sum((Fraction(a[i]) * b[l - i] for i in range(l + 1)), Fraction(0))
        for l in range(n)
    )


def siegel_phi(f):
    """Restriction to degree 1: the coefficient tuple of a((n, 0, 0)), n <= N."""
    return tuple(f.coeff(TMatrix(n, 0, QuatCoord(0, 0, 0, 0))) for n in range(f.N + 1))


@lru_cache(maxsize=None)
def monomial_h(a, b, N):
    """Product of a copies of E4H and b copies of E6H by the box product."""
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be >= 0")
    if a + b == 0:
        return constant(1, N)
    if a + b == 1:
        return build_form("E4H" if a else "E6H", N)
    if a:
        return mul(monomial_h(a - 1, b, N), monomial_h(1, 0, N))
    return mul(monomial_h(0, b - 1, N), monomial_h(0, 1, N))


@lru_cache(maxsize=None)
def ring_x10(N):
    diff = sub(monomial_h(1, 1, N), build_form("E10H", N))
    return scale(diff, Fraction(17, 161280))


@lru_cache(maxsize=None)
def ring_x12(N):
    comb = sub(
        add(
            scale(monomial_h(3, 0, N), Fraction(441, 691)),
            scale(monomial_h(0, 2, N), Fraction(250, 691)),
        ),
        build_form("E12H", N),
    )
    return scale(comb, Fraction(21421, 203212800))


@lru_cache(maxsize=None)
def ring_x14(N):
    return mul(monomial_h(1, 0, N), ring_x10(N))


RING = {"X10": ring_x10, "X12": ring_x12, "X14": ring_x14}


def ring_chi(k, p, N, G=None):
    """chi = G - p * P(E4H, E6H) on the depth-N box, where P expresses the
    first d coefficients of G's degree-1 restriction divided by p, d the
    number of weight-k monomials in E4 and E6 (so chi's restriction vanishes
    exactly when G's is modular); G defaults to the lifted G<k>H."""
    if G is None:
        G = build_form(f"G{k}H", N)
    d = sum(1 for b in range(k // 6 + 1) if (k - 6 * b) % 4 == 0)
    poly = express_in_e4_e6(k, tuple(Fraction(c, p) for c in siegel_phi(G)[:d]))
    combo = zero(k, N)
    for (a, b), c in poly.items():
        combo = add(combo, scale(monomial_h(a, b, N), c))
    return sub(G, scale(combo, p))


def sweep(f, g, p, N, claim):
    """The claim f(T) ≡ g(T) mod p over the depth-N box, index by index in
    box order: the witness entry of its first failing index, led by the
    claim text unless it is "", and the number of indices checked up to it;
    f and g map an index to its coefficient."""
    box = whole_box(N)
    for i, T in enumerate(box):
        a = f(T)
        b = g(T)
        if a.denominator % p == 0 or b.denominator % p == 0:
            detail = "not-p-integral"
        elif a != b and (a - b).numerator % p:
            detail = "fails"
        else:
            continue
        entry = {"T": str(T), "detail": detail}
        return [{"claim": claim, **entry} if claim else entry], i + 1
    return [], len(box)


def cong_mod(f, g, p, N):
    """The congruence Verdict of one sweep of the depth-N box."""
    if not is_prime(p):
        raise ValueError(f"cong_mod: modulus {p} is not prime")
    return Verdict(**_verdict("congruence", {"p": p, "depth": N}, *sweep(f, g, p, N, "")))


def _verdict(theorem, params, witnesses, checked):
    return {
        "theorem": theorem,
        "params": params,
        "status": "fails" if witnesses else "holds",
        "witnesses": witnesses,
        "checked": checked,
    }


def _table(name, N):
    return congr.form_table(name, 2 * N * N)


def ramanujan_verdict(k, p, N):
    """The ramanujan verdict JSON with chi from ring_chi, G lifted from its
    table index by index, and the named target read from its table."""
    G = lift(_table(f"G{k}H", N), N)
    chi = ring_chi(k, p, N, G)
    witnesses = []
    if any(siegel_phi(chi)):
        witnesses.append({"claim": "degree-1 restriction of chi vanishes"})
    found, checked = sweep(G.coeff, chi.coeff, p, N, f"g_h({k}) ≡ chi mod {p}")
    witnesses += found
    checked += N + 1
    params = {"k": k, "p": p, "depth": N}
    name = {(10, 17): "X10", (14, 691): "X14"}.get((k, p))
    if name:
        found, extra = sweep(chi.coeff, _table(name, N).coeff, p, N, f"chi ≡ {name} mod {p}")
        witnesses += found
        checked += extra
        params["target"] = name
    return _verdict("ramanujan-congruence", params, witnesses, checked)


def ep1_verdict(p, N):
    E = _table(f"E{p - 1}H", N).coeff
    claim = sweep(E, lambda T: Fraction(T == ZERO_INDEX), p, N, "")
    return _verdict("eisenstein-weight-p-minus-one", {"p": p, "depth": N}, *claim)


def theta_verdicts(N):
    out = []
    for k, p, name in ((4, 5, "X10"), (6, 7, "X14")):
        a = _table(f"G{k}H", N).coeff
        claim = sweep(lambda T: T.two_det() * a(T), _table(name, N).coeff, p, N, "")
        params = {"k": k, "p": p, "target": name, "depth": N}
        out.append(_verdict("theta-congruence", params, *claim))
    return out


def _nonresidue_sweep(a, p, N):
    """The claim p | a(T) at every T of the depth-N box with
    kronecker(-p, two_det(T)) = -1, index by index in box order: the
    witness entry of its first failing index, if any, and the number of
    such indices checked up to it."""
    checked = 0
    for T in whole_box(N):
        if kronecker(-p, T.two_det()) != -1:
            continue
        checked += 1
        c = a(T)
        if c.denominator % p == 0:
            detail = "not-p-integral"
        elif c.numerator % p:
            detail = "fails"
        else:
            continue
        claim = f"{p} | a where chi_{p} = -1"
        return [{"claim": claim, "T": str(T), "detail": detail}], checked
    return [], checked


def mod23_verdict(N):
    a = _table("X14", N).coeff
    witnesses, checked = _nonresidue_sweep(a, 23, N)

    def twisted(T):
        return a(T) * T.two_det() * kronecker(-23, T.two_det())

    found, corollary = sweep(
        twisted, lambda T: a(T) * T.two_det(), 23, N, "twisted theta ≡ theta mod 23"
    )
    witnesses += found
    checked += corollary
    return _verdict(
        "mod23-vanishing", {"p": 23, "depth": N}, witnesses, checked
    )


def congeis_verdict(k, N):
    p = 2 * k - 5
    witnesses, checked = _nonresidue_sweep(_table(f"G{k}H", N).coeff, p, N)
    half = (p - 1) // 2
    for ell in range(1, 501):
        if kronecker(-p, ell) == -1:
            checked += 1
            if sigma(half, ell) % p:
                witnesses.append({"ell": ell, "sigma": str(sigma(half, ell))})
    params = {"k": k, "p": p, "depth": N, "sigma_sweep": 500}
    return _verdict("eisenstein-nonresidue-vanishing", params, witnesses, checked)
