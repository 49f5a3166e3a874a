"""Machine verification of the congruence theorems on truncated expansions.

Every verifier sweeps exact data over the depth-N box and returns a Verdict:
status "holds" means every checked instance passed, "fails" carries explicit
witnesses, and precondition violations raise ValueError before any sweep
starts. A verdict is always a statement about the finite box it was run on.
It is the sum of its claims (_verdict): each sweep returns a claim, the pair
(witnesses, checked) of its failures and the instances it checked, and the
verdict joins the witnesses in claim order, adds up the checks and fails
exactly when a witness was found.

Named forms are read from their one-variable tables (form_table); no
verifier builds a whole expansion. Every predicate a verifier checks reads T
only through its class key (two_det(T), content of T): a table coefficient,
the theta image two_det * a(T), and kronecker(-p, two_det) all do. So each
sweep checks one value per class and counts the indices of each class with
class_counts, built once per verifier, without the box. Every claim over
the box is one such sweep (_sweep) of the classes it covers: all of them,
or, for the vanishing claims of mod23 and congeis, those where
kronecker(-p, two_det) = -1, swept against 0. Only a sweep that fails walks
the box, one index at a time and without keeping it, reading each index's
text and class from the keyed walk (box.iter_keyed), up to the first index
of a failing class it covers: its one witness, named by the walk's text,
with checked counting its classes' indices up to it, as an index-by-index
sweep would. cong_mod is the verdict of that one claim over the whole box.

The Ramanujan certificate (build_chi) is a pair of degree-1 facts: P,
refused unless p-integral, and whether chi = G - p * P(E4H, E6H) restricts
to 0 through q^N, the fit past the solve that series._express reports. The
verdict (ramanujan_verdict) sweeps the box, like every other verifier.
chi need not lie in the Maass space, but chi ≡ G mod p wherever G is
p-integral, so every sweep of chi reads G's table. The elliptic algebra
(qmf.series) is imported by build_chi, its one user, when it runs.

What each claim checks, and what it takes to fail it. Two of them hold by
construction wherever the coefficients they read are p-integral, so they
check p-integrality only, and the restriction claim holds wherever G's
table is self-consistent (chi_p is kronecker(-p, two_det)):

  verifier   claim                       fails only where
  ramanujan  restriction of chi vanishes R(0)/const != -2k/B_k in G's
                                         table, or sigma_row is wrong:
                                         else G's restriction is
                                         g_constant(k) E_k, and the d
                                         monomials solved for P span M_k
  ramanujan  g_h(k) ≡ chi mod p          G is not p-integral: G is swept
                                         against itself
  ramanujan  chi ≡ X10/X14 mod p         G and the target differ mod p
  theta      theta(G) ≡ X10/X14 mod p    two_det a_G and a_X differ mod p
  mod23      23 | a where chi_23 = -1    a_X14 is not 0 mod 23 there
  mod23      twisted theta ≡ theta       the first mod23 claim fails, or
                                         a_X14 is not 23-integral where
                                         chi_23 != -1: the sides are equal
                                         where it is 1, and read 23 a ≡ 0
                                         where it is 0. There an a_X14
                                         with one 23 in its denominator is
                                         reported as "fails", not
                                         "not-p-integral": 23 a has a
                                         residue
  congeis    p | a where chi_p = -1      a_G is not 0 mod p there
  congeis    sigma sweep                 sigma_row is wrong: the identity
                                         holds at every l, p ≡ 3 mod 4
  ep1        E_(p-1) ≡ 1 mod p           a coefficient is not 1 at T = 0,
                                         0 elsewhere, mod p
"""

from fractions import Fraction
from typing import NamedTuple

from .box import class_counts, iter_keyed
from .exactnum import bernoulli, is_prime, kronecker, residue, sigma_row
from .forms import _check_weight, _star_q1, form_table

__all__ = [
    "Verdict",
    "build_chi",
    "cong_mod",
    "ramanujan_verdict",
    "star_condition",
    "verify_cong_eis",
    "verify_ep_minus_one",
    "verify_mod23",
    "verify_theta_cong",
]


class Verdict(NamedTuple):
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
        return self._asdict()


def _verdict(theorem: str, params: dict, *claims) -> Verdict:
    """The Verdict summed from its claims, each a pair (witnesses, checked):
    the witnesses in claim order and the checks added up. It holds exactly
    when no witness was found."""
    witnesses = [w for found, _ in claims for w in found]
    status = "fails" if witnesses else "holds"
    return Verdict(theorem, params, status, witnesses, sum(n for _, n in claims))


def cong_mod(f, g, p: int, N: int) -> Verdict:
    """Check f(T) == g(T) mod p for every T in the depth-N box: the
    "congruence" Verdict of one sweep (_sweep), with params p and depth.

    f and g map a class key (two_det, content), T.class_key(), to the exact
    coefficient at every T of that class: a MaassTable's class_coeff, or any
    function of it such as a theta image. Each is evaluated once per class of
    the box, and a sweep that holds has checked every index. Otherwise its
    one witness {"T", "detail"} is the first T whose class fails, and checked
    counts the indices up to it, as in an index-by-index sweep. A class fails
    with detail "not-p-integral" when residue(., p) is None on either side,
    and "fails" when the two residues differ. A source that cannot answer at
    some class raises ValueError there.
    """
    if not is_prime(p):
        raise ValueError(f"cong_mod: modulus {p} is not prime")
    return _verdict("congruence", {"p": p, "depth": N}, _sweep(f, g, p, N, class_counts(N), ""))


def _sweep(f, g, p: int, N: int, counts: dict, text: str) -> tuple:
    """The claim f ≡ g mod p, for a prime p, over the indices of the depth-N
    box whose class is a key of counts, class_counts(N) (which a verifier
    with several sweeps builds once) or a part of it, in box order.

    A claim that holds is ([], the indices of those classes). One that fails
    walks the box's text view (iter_keyed) to its first failing index and
    names it as the walk reads it, "n,m,a,b,c,d": its one witness
    {"claim": text, "T": ..., "detail": ...}, without the "claim" key when
    text is "", and the indices checked up to it."""
    bad = {}
    for key in counts:
        a = residue(f(key), p)
        b = residue(g(key), p)
        if a is None or b is None:
            bad[key] = "not-p-integral"
        elif a != b:
            bad[key] = "fails"
    if not bad:
        return [], sum(counts.values())
    rows = (row for row in iter_keyed(N) if row[1] in counts)
    i, (T, key) = next((i, row) for i, row in enumerate(rows) if row[1] in bad)
    entry = {"T": T, "detail": bad[key]}
    return [{"claim": text, **entry} if text else entry], i + 1


def _check_modulus(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise ValueError(f"modulus must be a prime >= 5, got {p}")


def star_condition(k: int, p: int) -> bool:
    """The paper's star condition at weight k and a prime p >= 5:
    v_p((2^(k-2)-1) B_(k-2) / (k-2)) > 0 and v_p(B_k / k) >= 0.

    Both are read from residues mod p: the first quantity has residue 0
    (it is p-integral and p divides it), and B_k / k has a residue (p does
    not divide its denominator).
    """
    q1 = _star_q1(k)
    _check_modulus(p)
    return residue(q1, p) == 0 and residue(bernoulli(k) / k, p) is not None


def build_chi(k: int, p: int, N: int) -> tuple[dict[tuple[int, int], Fraction], bool]:
    """Certify, in degree 1, the cusp form chi = G - p * P(E4H, E6H); G is
    the G<k>H series, g_constant(k) times the weight-k Eisenstein series.
    Returns the pair (P, vanishes).

    Procedure: check that the depth N gives one equation per weight-k
    monomial in E4 and E6 (N >= 0 for k = 10, N >= 1 for k = 12), divide
    the degree-1 restriction phi of G, read from G's lift as
    G.restriction(N), by p, and hand all N + 1 coefficients to
    series._express once: P is solved from the first d of them and must be
    p-integral, and vanishes says P(E4, E6) matches the rest, so chi
    restricts to 0 through q^N. The quotient is p-integral once the star
    condition holds: with q1 = _star_q1(k), phi has constant term
    -q1 (B_k/k)/4 and q^j coefficient (q1/2) sigma_(k-1)(j). Everything is
    read from G's one-variable table; chi itself is never built, and the
    box is neither counted nor walked: ramanujan_verdict sweeps it (the box
    construction lives in the tests as the oracle).
    """
    from .series import _express, e4_e6_monomials

    if not star_condition(k, p):
        raise ValueError(f"pair (k={k}, p={p}) fails the star condition")
    # P has one unknown per monomial, solved from the q^0..q^(d-1)
    # coefficients; a negative N is refused below, so the monomials are
    # formed at N >= 0
    monomials = e4_e6_monomials(k, max(N, 0))
    d = len(monomials)
    if N < d - 1:
        raise ValueError(
            f"pair (k={k}, p={p}) needs depth >= {d - 1} (weight {k} has {d} "
            f"monomials in E4 and E6), got depth {N}"
        )
    phi = form_table(f"G{k}H", 2 * N * N).restriction(N)
    poly, miss = _express(k, monomials, [c / p for c in phi])
    if any(residue(c, p) is None for c in poly.values()):
        raise ValueError("polynomial expression is not p-integral")
    return poly, miss is None


# Pairs where a distinguished cusp form is the expected chi mod p.
_NAMED_TARGETS = {(10, 17): "X10", (14, 691): "X14"}


def ramanujan_verdict(k: int, p: int, N: int) -> Verdict:
    """Run build_chi and sweep chi ≡ G mod p over the box, then, for (k, p)
    with a distinguished cusp form in the table, chi against that form."""
    name = _NAMED_TARGETS.get((k, p))
    _, vanishes = build_chi(k, p, N)
    G = form_table(f"G{k}H", 2 * N * N).class_coeff
    counts = class_counts(N)
    params = {"k": k, "p": p, "depth": N}
    # claim texts and counts are part of the verdict JSON, so they keep their
    # wording, and the certificate counts the q^0..q^N of chi's restriction
    vanishing = [] if vanishes else [{"claim": "degree-1 restriction of chi vanishes"}]
    # chi - G = -p * P(E4H, E6H), and P(E4H, E6H) is p-integral because P is
    # (build_chi checked it) and E4H, E6H are integral. So chi(T) is
    # p-integral exactly where G(T) is, and then chi(T) ≡ G(T) mod p:
    # sweeping G against itself gives the status, witness and count of G
    # against chi.
    congruence = _sweep(G, G, p, N, counts, f"g_h({k}) ≡ chi mod {p}")
    claims = [(vanishing, N + 1), congruence]
    if name:
        params["target"] = name
        target = form_table(name, 2 * N * N).class_coeff
        claims.append(_sweep(G, target, p, N, counts, f"chi ≡ {name} mod {p}"))
    return _verdict("ramanujan-congruence", params, *claims)


def _one(key) -> Fraction:
    return Fraction(1) if key == (0, 0) else Fraction(0)


def _zero(key) -> int:
    return 0


def verify_ep_minus_one(p: int, N: int) -> Verdict:
    """Check that the weight p-1 Eisenstein series is ≡ 1 mod p
    coefficientwise on the box.

    Requires p >= 5 prime and B_(p-3) nonzero mod p (the two known prime
    exceptions are far beyond desk scale).
    """
    _check_modulus(p)
    if residue(bernoulli(p - 3), p) in (None, 0):
        raise ValueError(f"hypothesis fails: B_{p - 3} ≡ 0 mod {p}")
    E = form_table(f"E{p - 1}H", 2 * N * N)
    claim = _sweep(E.class_coeff, _one, p, N, class_counts(N), "")
    return _verdict("eisenstein-weight-p-minus-one", {"p": p, "depth": N}, claim)


def verify_theta_cong(N: int) -> list[Verdict]:
    """Check theta(G4H) ≡ X10 mod 5 and theta(G6H) ≡ X14 mod 7, where theta
    multiplies a(T) by two_det(T)."""
    out, counts = [], class_counts(N)
    for k, p, name in ((4, 5, "X10"), (6, 7, "X14")):
        a = form_table(f"G{k}H", 2 * N * N).class_coeff
        target = form_table(name, 2 * N * N).class_coeff
        claim = _sweep(lambda key: key[0] * a(key), target, p, N, counts, "")
        params = {"k": k, "p": p, "target": name, "depth": N}
        out.append(_verdict("theta-congruence", params, claim))
    return out


def verify_mod23(N: int) -> Verdict:
    """Check 23 | a(X14; T) whenever kronecker(-23, two_det(T)) = -1, plus the
    twisted-theta corollary: a(T) two_det(T) kronecker(-23, two_det(T)) ≡
    a(T) two_det(T) mod 23."""
    a = form_table("X14", 2 * N * N).class_coeff
    counts = class_counts(N)
    nonresidue = {key: n for key, n in counts.items() if kronecker(-23, key[0]) == -1}
    vanishing = _sweep(a, _zero, 23, N, nonresidue, "23 | a where chi_23 = -1")

    def twisted(key):
        return a(key) * key[0] * kronecker(-23, key[0])

    corollary = _sweep(
        twisted, lambda key: a(key) * key[0], 23, N, counts, "twisted theta ≡ theta mod 23"
    )
    return _verdict("mod23-vanishing", {"p": 23, "depth": N}, vanishing, corollary)


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
    G = form_table(f"G{k}H", 2 * N * N).class_coeff
    counts = class_counts(N)
    nonresidue = {key: n for key, n in counts.items() if kronecker(-p, key[0]) == -1}
    vanishing = _sweep(G, _zero, p, N, nonresidue, f"{p} | a where chi_{p} = -1")
    s = sigma_row((p - 1) // 2, _SIGMA_SWEEP)
    sweep = [ell for ell in range(1, _SIGMA_SWEEP + 1) if kronecker(-p, ell) == -1]
    sigma = ([{"ell": ell, "sigma": str(s[ell])} for ell in sweep if s[ell] % p], len(sweep))
    params = {"k": k, "p": p, "depth": N, "sigma_sweep": _SIGMA_SWEEP}
    return _verdict("eisenstein-nonresidue-vanishing", params, vanishing, sigma)
