"""Machine verification of the congruence theorems on truncated expansions.

Every verifier sweeps exact data over the depth-N box and returns a Verdict:
status "holds" means every checked instance passed, "fails" carries explicit
witnesses, and precondition violations raise ValueError before any sweep
starts. A verdict is always a statement about the finite box it was run on.

Named forms are read from their one-variable tables (form_table); no
verifier builds a whole expansion. Every predicate a verifier checks reads T
only through its class key (two_det(T), content of T): a table coefficient,
the theta image two_det * a(T), and kronecker(-p, two_det) all do. So each
sweep checks one value per class and counts the indices of each class with
class_counts, without the box; only a sweep that fails walks the box, one
index at a time and without keeping it, reading each index's class from the
keyed walk (tmat.iter_keyed), to name its witnesses as an index-by-index
sweep would; cong_mod is that sweep for a coefficientwise congruence. The
Ramanujan certificate's cusp form chi = G - p * P(E4H, E6H) need not lie in
the Maass space, but chi ≡ G mod p wherever G is p-integral, so every check
on chi reads G's table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from .exactnum import bernoulli, factorize, is_prime, kronecker, ord_p, sigma
from .forms import _check_weight, form_table
from .series import QSeries, e4_e6_monomials, express_in_e4_e6
from .tmat import TMatrix, class_counts, iter_keyed

__all__ = [
    "ChiReport",
    "CongCheck",
    "Verdict",
    "build_chi",
    "cong_mod",
    "ramanujan_verdict",
    "star_condition",
    "star_primes",
    "verify_cong_eis",
    "verify_ep_minus_one",
    "verify_mod23",
    "verify_theta_cong",
]


@dataclass(frozen=True)
class CongCheck:
    """Outcome of a coefficientwise congruence check modulo p.

    status is "holds", "fails" (witness = first violating T in enumeration
    order), or "not-p-integral" (witness = first T where either side has a
    coefficient with p in the denominator, so the congruence is meaningless).
    checked counts box entries examined.
    """

    status: str
    witness: TMatrix | None
    checked: int

    @property
    def ok(self) -> bool:
        return self.status == "holds"


def cong_mod(f, g, p: int, N: int) -> CongCheck:
    """Check f(T) == g(T) mod p for every T in the depth-N box.

    f and g map a class key (two_det, content), T.class_key(), to the exact
    coefficient at every T of that class: a MaassTable's class_coeff, or any
    function of it such as a theta image. Each is evaluated once per class of
    the box, and a sweep that holds has checked every index. Otherwise the
    keyed walk reads the class of each index, without keeping the box or
    building an index matrix but for the witness, up to the first T whose
    class fails, so the witness and checked are those of an index-by-index
    sweep. A source that cannot answer at some class raises ValueError there.
    """
    if not is_prime(p):
        raise ValueError(f"cong_mod: modulus {p} is not prime")
    counts = class_counts(N)
    bad = {}
    for key in counts:
        a = f(key)
        b = g(key)
        if a.denominator % p == 0 or b.denominator % p == 0:
            bad[key] = "not-p-integral"
        elif a != b and (a - b).numerator % p:
            bad[key] = "fails"
    if not bad:
        return CongCheck("holds", None, sum(counts.values()))
    i, (n, m, t, key) = next(
        (i, row) for i, row in enumerate(iter_keyed(N, lambda t: t)) if row[3] in bad
    )
    return CongCheck(bad[key], TMatrix(n, m, t), i + 1)


@dataclass
class Verdict:
    """Outcome of one theorem sweep over a truncation box."""

    theorem: str
    params: dict
    status: str  # "holds" | "fails"
    witnesses: list
    checked: int

    @property
    def ok(self) -> bool:
        return self.status == "holds"

    def to_json(self) -> dict:
        """The verdict JSON: the fields, in their order, as its keys."""
        return asdict(self)


def _verdict(theorem: str, params: dict, witnesses: list, checked: int) -> Verdict:
    """A sweep's Verdict: it holds exactly when no witness was found."""
    status = "fails" if witnesses else "holds"
    return Verdict(theorem, params, status, witnesses, checked)


def _witnesses(check: CongCheck, claim: str = "") -> list:
    """The witness entry of a failed check, led by the claim when one is given."""
    if check.ok:
        return []
    entry = {"T": str(check.witness), "detail": check.status}
    return [{"claim": claim, **entry} if claim else entry]


def _star_q1(k: int) -> Fraction:
    """(2^(k-2)-1) B_(k-2) / (k-2), for an even weight k >= 4."""
    _check_weight(k)
    return (2 ** (k - 2) - 1) * bernoulli(k - 2) / (k - 2)


def _check_modulus(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise ValueError(f"modulus must be a prime >= 5, got {p}")


def star_condition(k: int, p: int) -> bool:
    """True when ord_p((2^(k-2)-1) B_(k-2) / (k-2)) > 0 and ord_p(B_k / k) >= 0."""
    q1 = _star_q1(k)
    _check_modulus(p)
    return ord_p(q1, p) > 0 and ord_p(bernoulli(k) / k, p) >= 0


def star_primes(k: int) -> list[int]:
    """All primes >= 5 satisfying star_condition at weight k, ascending.

    Candidates are the prime factors of the numerator of
    (2^(k-2)-1) B_(k-2) / (k-2); any prime outside that numerator has
    valuation 0 there and cannot satisfy the first inequality.
    """
    q1 = _star_q1(k)
    cands = sorted(q for q in factorize(abs(q1.numerator)) if q >= 5)
    return [q for q in cands if star_condition(k, q)]


@dataclass
class ChiReport:
    """Certificate data from one cusp-witness construction."""

    k: int
    p: int
    N: int
    poly: dict[tuple[int, int], Fraction]
    phi_vanishes: bool
    congruence: CongCheck

    @property
    def ok(self) -> bool:
        return self.phi_vanishes and self.congruence.ok


def build_chi(k: int, p: int, N: int) -> ChiReport:
    """Certify the cusp form chi = G - p * P(E4H, E6H) with G ≡ chi mod p on
    the depth-N box; G is the G<k>H series, g_constant(k) times the weight-k
    Eisenstein series.

    Procedure: check that the depth N gives the q^0..q^N coefficients one
    equation per weight-k monomial in E4 and E6 (N >= 0 for k = 10, N >= 1
    for k = 12), divide the degree-1 restriction phi of G, read from G's lift
    as phi(j) = G.class_coeff((0, j)), by p, check the quotient is
    p-integral, solve its first d coefficients for a polynomial P in the
    elliptic weight-4/weight-6 generators (with p-integral coefficients), and
    check that phi - p * P(E4, E6) vanishes at every q^0..q^N, so chi
    restricts to 0 in degree 1: past q^(d-1) those checks are not implied by
    how P was solved.
    Everything is read from G's one-variable table; chi itself is never
    built, because every fact the certificate states about it follows from
    G and P (the box construction lives in the tests as the oracle).
    """
    if not star_condition(k, p):
        raise ValueError(f"pair (k={k}, p={p}) fails the star condition")
    monomials = e4_e6_monomials(k, N)
    # P has one unknown per monomial, solved from the q^0..q^N coefficients
    d = len(monomials)
    if N < d - 1:
        raise ValueError(
            f"pair (k={k}, p={p}) needs depth >= {d - 1} (weight {k} has {d} "
            f"monomials in E4 and E6), got depth {N}"
        )
    G = form_table(f"G{k}H", 2 * N * N)
    phi = QSeries(k, tuple(G.class_coeff((0, j)) for j in range(N + 1)))
    f = phi.scale(Fraction(1, p))
    if any(c.denominator % p == 0 for c in f.coeffs):
        raise ValueError(f"degree-1 restriction of G{k}H is not divisible by {p}")
    poly = express_in_e4_e6(f.truncate(d - 1))
    if any(ord_p(c, p) < 0 for c in poly.values()):
        raise ValueError("polynomial expression is not p-integral")
    for ab, c in poly.items():
        phi = phi - monomials[ab].scale(p * c)
    # chi - G = -p * P(E4H, E6H), and P(E4H, E6H) is p-integral because P is
    # (checked above) and E4H, E6H are integral. So chi(T) is p-integral
    # exactly where G(T) is, and then chi(T) ≡ G(T) mod p: sweeping G
    # against itself gives the status, witness and count of G against chi.
    congruence = cong_mod(G.class_coeff, G.class_coeff, p, N)
    return ChiReport(
        k=k, p=p, N=N, poly=poly, phi_vanishes=phi.is_zero(), congruence=congruence
    )


# Pairs where a distinguished cusp form is the expected chi mod p.
_NAMED_TARGETS = {(10, 17): "X10", (14, 691): "X14"}


def ramanujan_verdict(k: int, p: int, N: int) -> Verdict:
    """Run build_chi and fold its certificate into a Verdict.

    For (k, p) with a distinguished cusp form in the table, additionally
    checks chi against that form mod p on the box. Where G is p-integral,
    chi ≡ G mod p, so that check reads G's table in chi's place.
    """
    report = build_chi(k, p, N)
    witnesses: list = []
    checked = report.congruence.checked + (N + 1)
    if not report.phi_vanishes:
        witnesses.append({"claim": "degree-1 restriction of chi vanishes"})
    # claim texts are part of the verdict JSON, so they keep their wording
    witnesses += _witnesses(report.congruence, f"g_h({k}) ≡ chi mod {p}")
    name = _NAMED_TARGETS.get((k, p))
    params = {"k": k, "p": p, "depth": N}
    if name:
        G = form_table(f"G{k}H", 2 * N * N).class_coeff
        extra = cong_mod(G, form_table(name, 2 * N * N).class_coeff, p, N)
        checked += extra.checked
        params["target"] = name
        witnesses += _witnesses(extra, f"chi ≡ {name} mod {p}")
    return _verdict("ramanujan-congruence", params, witnesses, checked)


def _one(key) -> Fraction:
    return Fraction(1) if key == (0, 0) else Fraction(0)


def verify_ep_minus_one(p: int, N: int) -> Verdict:
    """Check that the weight p-1 Eisenstein series is ≡ 1 mod p
    coefficientwise on the box.

    Requires p >= 5 prime and B_(p-3) nonzero mod p (the two known prime
    exceptions are far beyond desk scale).
    """
    _check_modulus(p)
    if ord_p(bernoulli(p - 3), p) != 0:
        raise ValueError(f"hypothesis fails: B_{p - 3} ≡ 0 mod {p}")
    E = form_table(f"E{p - 1}H", 2 * N * N)
    check = cong_mod(E.class_coeff, _one, p, N)
    params = {"p": p, "depth": N}
    theorem = "eisenstein-weight-p-minus-one"
    return _verdict(theorem, params, _witnesses(check), check.checked)


def verify_theta_cong(N: int) -> list[Verdict]:
    """Check theta(G4H) ≡ X10 mod 5 and theta(G6H) ≡ X14 mod 7, where theta
    multiplies a(T) by two_det(T)."""
    out = []
    for k, p, name in ((4, 5, "X10"), (6, 7, "X14")):
        a = form_table(f"G{k}H", 2 * N * N).class_coeff
        target = form_table(name, 2 * N * N)
        check = cong_mod(lambda key: key[0] * a(key), target.class_coeff, p, N)
        params = {"k": k, "p": p, "target": name, "depth": N}
        verdict = _verdict("theta-congruence", params, _witnesses(check), check.checked)
        out.append(verdict)
    return out


def _kronecker_table(p: int, N: int) -> list[int]:
    """kronecker(-p, l) for every two_det value l = 0..2N^2 of the depth-N box."""
    return [kronecker(-p, l) for l in range(2 * N * N + 1)]


def _nonresidue_sweep(a, p: int, N: int, witnesses: list) -> int:
    """Append a witness for every box index T with kronecker(-p, two_det(T))
    = -1 where a(T) is not ≡ 0 mod p; return how many such T were checked.

    a maps a class key to the coefficient of its class; the keyed walk runs
    only to list the indices of the classes that fail, as text."""
    chi = _kronecker_table(p, N)
    counts = class_counts(N)
    nonresidue = [key for key in counts if chi[key[0]] == -1]
    bad = set()
    for key in nonresidue:
        c = a(key)
        if c.denominator % p == 0 or c.numerator % p:
            bad.add(key)
    if bad:
        for n, m, t, key in iter_keyed(N):
            if key in bad:
                witnesses.append({"T": f"{n},{m},{t}", "coeff": str(a(key))})
    return sum(counts[key] for key in nonresidue)


def verify_mod23(N: int) -> Verdict:
    """Check 23 | a(X14; T) whenever kronecker(-23, two_det(T)) = -1, plus the
    twisted-theta corollary: a(T) two_det(T) kronecker(-23, two_det(T)) ≡
    a(T) two_det(T) mod 23."""
    a = form_table("X14", 2 * N * N).class_coeff
    witnesses: list = []
    checked = _nonresidue_sweep(a, 23, N, witnesses)

    chi = _kronecker_table(23, N)

    def twisted(key):
        td = key[0]
        return a(key) * td * chi[td]

    corollary = cong_mod(twisted, lambda key: a(key) * key[0], 23, N)
    checked += corollary.checked
    witnesses += _witnesses(corollary, "twisted theta ≡ theta mod 23")
    return _verdict("mod23-vanishing", {"p": 23, "depth": N}, witnesses, checked)


_SIGMA_SWEEP = 500


def verify_cong_eis(k: int, N: int) -> Verdict:
    """For p = 2k-5 prime: check p | a(G<k>H; T) whenever
    kronecker(-p, two_det(T)) = -1, plus the divisor-sum identity behind it:
    sigma_((p-1)/2)(l) ≡ 0 mod p for every l <= 500 with kronecker(-p, l) = -1.
    """
    _check_weight(k)
    p = 2 * k - 5
    if not is_prime(p):
        raise ValueError(f"2k-5 = {p} is composite, theorem does not apply")
    witnesses: list = []
    G = form_table(f"G{k}H", 2 * N * N).class_coeff
    checked = _nonresidue_sweep(G, p, N, witnesses)
    half = (p - 1) // 2
    for ell in range(1, _SIGMA_SWEEP + 1):
        if kronecker(-p, ell) != -1:
            continue
        checked += 1
        if sigma(half, ell) % p:
            witnesses.append({"ell": ell, "sigma": str(sigma(half, ell))})
    params = {"k": k, "p": p, "depth": N, "sigma_sweep": _SIGMA_SWEEP}
    return _verdict("eisenstein-nonresidue-vanishing", params, witnesses, checked)
