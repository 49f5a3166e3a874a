"""The named degree-2 forms over the Hurwitz order.

Every named form (E<k>H, G<k>H, X10, X12, X14) lies in the Maass space, so
it is fixed by its weight, its constant term and its first Fourier-Jacobi
row R, a function of one variable. The coefficient at T != 0 is
sum_{d | eps(T)} d^(k-1) * R(two_det(T)/d^2), where eps is the content of T
(Eichler-Zagier, The Theory of Jacobi Forms; Krieg on the Maass space for
quaternionic modular forms of degree 2). One builder gives the closed-form
Eisenstein tables. The cusp forms in weights 10, 12 and 14, normalized to 1
at T_0 = (1, 1, (1, 1, 0, 0)), have eta-product rows in integers: R_X10 =
f8 - 16 f8|V2, R_X12 = f10 + 32 f10|V2 and R_X14 = Delta - 2^12 Delta|V4,
with f8 = eta(z)^8 eta(2z)^8, f10 = f8 (2 E2(2z) - E2(z)), Delta = eta^24
and f|Vm = f(q^m); no cusp row reads another table. Their products go
through _mul, the library's one convolution: one big-integer product of
integer rows by Kronecker substitution, with which qmf.series forms the
E4/E6 monomials too. A table is the form: callers read coefficients from
it, and form_table holds one per form, the longest built so far.
build_form lifts a table to a read-only FourierExpansion on a whole box,
which the library never does arithmetic on; the tests multiply such boxes
in their oracle for the tables. Only the lift imports fexp, box and tmat,
so reading a table's coefficients loads no expansion or box code.

A finite check of a row proves it at every l. The row of a weight-k form
here is a modular form of weight k - 2 on Gamma0(4) with rational
coefficients: an Eisenstein row is a multiple of E_(k-2)(z) - 2^(k-2)
E_(k-2)(4z), and a product fg of two Maass-space forms has the row
phi_f(q^2) R_g + phi_g(q^2) R_f, phi the level-1 Siegel restrictions. So
the rows of the paper's cusp forms, polynomials in Eisenstein series, lie
in that space, as the eta products do. Two such forms that agree for
l <= (k - 2)/2, the Sturm bound for Gamma0(4) (J. Sturm, "On the
congruence of modular forms", LNM 1240, 1987), agree at every l; the tests
check each eta row against the paper's definition to l = 400, far past
the bound.
"""

import re
from fractions import Fraction

from .exactnum import bernoulli, divisors, sigma_row

__all__ = [
    "MaassTable",
    "build_form",
    "form_table",
    "g_constant",
    "x14_closed",
]


def _check_weight(k: int) -> None:
    if k < 4 or k % 2:
        raise ValueError(f"weight must be even and >= 4, got {k}")


def _star_q1(k: int) -> Fraction:
    """(2^(k-2)-1) B_(k-2) / (k-2), for an even weight k >= 4: the quantity
    whose p-adic valuation the star condition reads."""
    _check_weight(k)
    return (2 ** (k - 2) - 1) * bernoulli(k - 2) / (k - 2)


class MaassTable:
    """A Maass-space form's weight, constant term const and first
    Fourier-Jacobi row R, R[l] = a((1, m, t)) at l = 2m - norm(t)/2, exact
    for 0 <= l < len(R); coeff reads the form's Maass lift.

    A coefficient at T != 0 depends on T only through the class key
    (two_det(T), eps(T)) that tmat._class_key folds, so class_coeff is the
    coefficient function and coeff reads T's class through it. restriction
    reads the lift's Siegel restriction a((j, 0, 0)) at the classes (0, j).
    Tables are shared, one per form: treat them as read-only.
    """

    __slots__ = ("weight", "const", "R")

    def __init__(self, weight: int, const: Fraction, R: tuple[Fraction, ...]):
        self.weight = weight
        self.const = const
        self.R = R

    def coeff(self, T) -> Fraction:
        """Coefficient of the Maass lift at an index T such as a TMatrix (0
        when T is not psd); raises ValueError when two_det(T) is past R."""
        return self.class_coeff(T.class_key()) if T.is_psd() else Fraction(0)

    def class_coeff(self, key: tuple[int, int]) -> Fraction:
        """Coefficient of the Maass lift at every psd T of class key =
        T.class_key(); raises ValueError when two_det is past the end of R,
        and at a key no psd T has (a negative two_det, a content below 1
        but at (0, 0), or a content whose square does not divide two_det)."""
        if key == (0, 0):
            return self.const
        td, eps = key
        if td < 0 or eps < 1:
            raise ValueError(f"class {key} is the class key of no psd index")
        if td >= len(self.R):
            raise ValueError(
                f"table reaches l = {len(self.R) - 1}; class {key} needs l = {td}"
            )
        if eps == 1:  # divisors(1) == (1,): the sum is the entry itself
            return self.R[td]
        # T = eps T' gives two_det(T) = eps^2 two_det(T')
        if td % (eps * eps):
            raise ValueError(f"class {key} is the class key of no psd index")
        k1 = self.weight - 1
        return sum(d**k1 * self.R[td // (d * d)] for d in divisors(eps))

    def restriction(self, n: int) -> list[Fraction]:
        """The Siegel restriction a((j, 0, 0)) for j = 0..n: const, then the
        divisor sums R(0) sigma_(k-1)(j) at the classes (0, j)."""
        return [self.const, *(self.R[0] * s for s in sigma_row(self.weight - 1, n)[1:])]


def g_constant(k: int) -> Fraction:
    """Normalizing scalar putting the weight-k Eisenstein series on the
    integral singular series sigma_{k-3}(l) - 2^(k-2) sigma_{k-3}(l/4):
    -_star_q1(k) B_k / (4k)."""
    return -_star_q1(k) * bernoulli(k) / (4 * k)


def _eisenstein_table(k: int, g: bool, L: int) -> MaassTable:
    """Table of the weight-k Eisenstein series, E<k>H or, when g, G<k>H =
    g_constant(k) E<k>H: with u its constant term, R(0) = -2k u / B_k and
    R(l) = u S(l) / g_constant(k), with S(l) = sigma_(k-3)(l) - 2^(k-2)
    sigma_(k-3)(l/4)."""
    gk = g_constant(k)  # checks the weight before B_k is read
    u, cpos = (gk, Fraction(1)) if g else (Fraction(1), 1 / gk)
    s, twist = sigma_row(k - 3, L), 2 ** (k - 2)
    S = (s[l] - twist * s[l // 4] if l % 4 == 0 else s[l] for l in range(1, L + 1))
    return MaassTable(k, u, (-2 * k * u / bernoulli(k),) + tuple(cpos * x for x in S))


def _pack(xs: list[int], w: int) -> int:
    """sum_i xs[i] 2^(8wi): xs in w-byte two's-complement slots read as one
    integer, less a borrow of 1 in slot i + 1 for each negative xs[i]; both
    integers are read from bytes, in time linear in their length."""
    one, zero = (1).to_bytes(w, "little"), bytes(w)
    slots = b"".join(x.to_bytes(w, "little", signed=True) for x in xs)
    borrow = zero + b"".join(one if x < 0 else zero for x in xs)
    return int.from_bytes(slots, "little") - int.from_bytes(borrow, "little")


def _mul(a, b) -> tuple[int, ...]:
    """The product of two truncated q-series of integers, to the shorter
    precision n, as one big-integer product (Kronecker substitution; D.
    Harvey, J. Symbolic Comput. 44, 2009). An entry is an int or an
    integer-valued Fraction, read by its numerator; any other raises
    ValueError. Each factor is packed in w-byte slots. A coefficient
    of the product sums at most n terms A_i B_j, so its magnitude is below
    2^(bits(max|A|) + bits(max|B|) + bits(n)) <= 2^(8w - 2): with 2^(8w - 1)
    added it fills its slot without a carry, and the low n slots, read back
    from bytes, are the coefficients."""
    n = min(len(a), len(b))
    bad = next((x for X in (a, b) for x in X[:n] if x.denominator != 1), None)
    if bad is not None:
        raise ValueError(f"_mul multiplies integer rows, got the entry {bad}")
    A, B = ([x.numerator for x in X[:n]] for X in (a, b))
    bits = sum(max(map(abs, X), default=0).bit_length() for X in (A, B))
    w = (bits + n.bit_length() + 2 + 7) // 8
    half = bytes(w - 1) + b"\x80"  # 2^(8w - 1) in one slot
    C = _pack(A, w) * _pack(B, w) + int.from_bytes(half * n, "little")
    raw = (C & ((1 << 8 * w * n) - 1)).to_bytes(w * n, "little")
    mid = 1 << 8 * w - 1
    return tuple(int.from_bytes(raw[i : i + w], "little") - mid for i in range(0, w * n, w))


def _v(row, m: int, L: int) -> list:
    """row|V_m = row(q^m) to q^L: row[j] at q^(mj), 0 at the other powers."""
    out = [0] * (L + 1)
    out[::m] = row[: L // m + 1]
    return out


def _q_eighth(s, L: int) -> list[int]:
    """q s^8 to q^L, s an integer q-series to q^L squared three times."""
    for _ in range(3):
        s = _mul(s, s)
    return [0, *s[:L]]


def _f8(L: int) -> list[int]:
    """f8 = eta(z)^8 eta(2z)^8 = q prod (1 - q^n)^8 (1 - q^2n)^8 to q^L:
    Euler's product prod (1 - q^n), from the pentagonal number theorem
    ((-1)^j at q^(j(3j -+ 1)/2)), times its V2, to the eighth power."""
    eta, j = [0] * (L + 1), 0
    while j * (3 * j - 1) // 2 <= L:
        for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if g <= L:
                eta[g] = (-1) ** j
        j += 1
    return _q_eighth(_mul(eta, _v(eta, 2, L)), L)


def _x10_table(L: int) -> MaassTable:
    """R_X10 = f8 - 16 f8|V2."""
    f8 = _f8(L)
    return MaassTable(10, Fraction(0), tuple(Fraction(a - 16 * b) for a, b in zip(f8, _v(f8, 2, L))))


def _x12_table(L: int) -> MaassTable:
    """R_X12 = f10 + 32 f10|V2, f10 = f8 (2 E2(2z) - E2(z)), with 2 E2(2z) -
    E2(z) = 1 + 24 sum (sigma_1(n) - 2 sigma_1(n/2)) q^n."""
    s = sigma_row(1, L)
    e2 = [24 * (a - 2 * b) for a, b in zip(s, _v(s, 2, L))]
    e2[0] = 1
    f10 = _mul(_f8(L), e2)
    return MaassTable(12, Fraction(0), tuple(Fraction(a + 32 * b) for a, b in zip(f10, _v(f10, 2, L))))


def _x14_table(L: int) -> MaassTable:
    """R_X14 = Delta - 2^12 Delta|V4, Delta = eta(z)^24 = q (prod (1 - q^n)^3)^8
    with Jacobi's prod (1 - q^n)^3 = sum (-1)^j (2j + 1) q^(j(j + 1)/2)."""
    cube, j = [0] * (L + 1), 0
    while j * (j + 1) // 2 <= L:
        cube[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
        j += 1
    delta = _q_eighth(cube, L)
    return MaassTable(14, Fraction(0), tuple(Fraction(a - 4096 * b) for a, b in zip(delta, _v(delta, 4, L))))


def x14_closed(T) -> Fraction:
    """The weight-14 cusp coefficient at a rank-2 index, a psd T with
    two_det(T) > 0, read off the X14 table alone: sum_{d | eps(T)} d^13
    R(two_det(T)/d^2), R = τ*, the X14 row."""
    if not (T.is_psd() and T.two_det() > 0):
        raise ValueError(f"closed form needs rank 2, got {T}")
    return form_table("X14", T.two_det()).coeff(T)


_FORM_RE = re.compile(r"([EG])(\d+)H", re.IGNORECASE)
_CUSP_TABLES = {"X10": _x10_table, "X12": _x12_table, "X14": _x14_table}
_TABLES: dict[str, MaassTable] = {}


def form_table(name: str, L: int) -> MaassTable:
    """The one table of a named form, X10, X12, X14, E<k>H or G<k>H ("E04H"
    and " e4h " name E4H), reaching at least l = L. A shorter table is
    replaced by the form built at exactly L: a cusp row costs big-integer
    products of L + 1 slots, more than linear in L, so building past L would
    cost more than the request needs."""
    if L < 0:
        raise ValueError(f"table length must be >= 0, got L = {L}")
    key = name.strip().upper()
    build, args = _CUSP_TABLES.get(key), ()
    if build is None:
        m = _FORM_RE.fullmatch(key)
        if not m:
            raise ValueError(
                f"unknown form {name!r}: expected X10, X12, X14, E<k>H or G<k>H"
            )
        k = int(m.group(2))
        key, build = f"{m.group(1)}{k}H", _eisenstein_table
        args = (k, m.group(1) == "G")
    table = _TABLES.get(key)
    if table is None or len(table.R) <= L:
        table = _TABLES[key] = build(*args, L)
    return table


def build_form(name: str, N: int):
    """The Maass lift on the depth-N box of a named form, as a
    FourierExpansion: X10, X12, X14, E<k>H or G<k>H. Its table reaches
    2*N^2, the largest two_det in the box, and each class is evaluated
    once."""
    from .box import class_counts, iter_keyed
    from .fexp import FourierExpansion
    from .tmat import parse_tmatrix

    table = form_table(name, 2 * N * N)
    coeffs = {key: table.class_coeff(key) for key in class_counts(N)}
    return FourierExpansion(
        table.weight, N, {parse_tmatrix(text): coeffs[key] for text, key in iter_keyed(N)}
    )
