"""Acceptance gate: five end-to-end criteria over the whole package.

Each criterion is one test that prints a single PASS line once every
assertion in it has held. Run with -s (or read the -v listing) to see the
lines. Together they pin the headline congruences, the star-prime table,
the two independent cusp-form constructions, the theorem sweeps at depth 4
with all nine certificates, and the structural properties of the lift.
"""

from fractions import Fraction

from box_oracle import (
    ZERO_INDEX,
    cong_mod,
    eisenstein_q,
    mul,
    ring_x14,
    siegel_phi,
    star_primes,
    tau,
    whole_box,
)
from qmf.congr import (
    build_chi,
    ramanujan_verdict,
    verify_cong_eis,
    verify_ep_minus_one,
    verify_mod23,
)
from qmf.exactnum import bernoulli, factorize, is_prime, kronecker
from qmf.forms import _mul, build_form, x14_closed
from qmf.tmat import parse_tmatrix

T0 = parse_tmatrix("1,1,1,1,0,0")
I2 = parse_tmatrix("1,1,0,0,0,0")
T3 = parse_tmatrix("1,2,1,1,0,0")
PROBE = (T0, I2, T3)


def F(name):
    return build_form(name, 3)


def test_acceptance_1_headline_congruences():
    """Frozen coefficient rows and the four headline congruences at depth 3."""
    rows = {
        "G10H": (1, 129, 2188),
        "X10": (1, -24, 12),
        "G14H": (1, 2049, 177148),
        "X14": (1, -24, 252),
    }
    for name, expected in rows.items():
        got = tuple(F(name).coeff(T) for T in PROBE)
        assert got == expected, f"{name} row {got} != {expected}"

    assert cong_mod(F("G10H").coeff, F("X10").coeff, 17, 3).ok
    assert cong_mod(F("G14H").coeff, F("X14").coeff, 691, 3).ok
    g4, g6 = F("G4H"), F("G6H")

    def theta4(T):
        return T.two_det() * g4.coeff(T)

    def theta6(T):
        return T.two_det() * g6.coeff(T)

    assert tuple(theta4(T) for T in PROBE) == (1, 6, 12)
    assert tuple(theta6(T) for T in PROBE) == (1, 18, 84)
    assert all(theta4(T) == 0 for T in whole_box(3) if T.two_det() == 0)
    assert cong_mod(theta4, F("X10").coeff, 5, 3).ok
    assert cong_mod(theta6, F("X14").coeff, 7, 3).ok

    a = F("X14").coeff(parse_tmatrix("1,3,1,1,0,0"))
    assert a == 4830
    assert factorize(4830) == {2: 1, 3: 1, 5: 1, 7: 1, 23: 1}
    print(
        "ACCEPTANCE 1: PASS - headline rows frozen; mod 17/691/5/7 "
        "congruences hold at depth 3; a(X14; det 5/2 index) = 4830 = 2*3*5*7*23"
    )


def test_acceptance_2_star_prime_table():
    """The full table of pairing primes for weights 4 through 20."""
    expected = {
        4: [],
        6: [],
        8: [],
        10: [17],
        12: [31],
        14: [691],
        16: [43, 127],
        18: [257, 3617],
        20: [73, 43867],
    }
    for k, primes in expected.items():
        assert star_primes(k) == primes, f"weight {k}"
    print("ACCEPTANCE 2: PASS - star-prime table reproduced for k = 4..20")


def test_acceptance_3_two_constructions_agree():
    """Ring-multiplication X14 equals its closed divisor-sum formula."""
    via_ring = ring_x14(3)
    checked = 0
    for T in whole_box(3):
        if T.two_det() == 0:
            assert via_ring.coeff(T) == 0
            continue
        checked += 1
        assert via_ring.coeff(T) == x14_closed(T), f"mismatch at {T}"
    assert checked >= 700
    print(
        f"ACCEPTANCE 3: PASS - X14 by series multiplication matches the "
        f"closed formula on all {checked} rank-2 indices at depth 3"
    )


def test_acceptance_4_theorem_sweeps_and_certificates():
    """Depth-4 verdicts for every theorem plus all nine chi certificates."""
    assert verify_mod23(4).ok
    for k in (6, 12, 14, 18):
        assert verify_cong_eis(k, 4).ok, f"k={k}"
    for p in (5, 7, 11, 13):
        assert verify_ep_minus_one(p, 4).ok, f"p={p}"
    pairs = [
        (10, 17),
        (12, 31),
        (14, 691),
        (16, 43),
        (16, 127),
        (18, 257),
        (18, 3617),
        (20, 73),
        (20, 43867),
    ]
    for k, p in pairs:
        report = build_chi(k, p, 3)
        assert report.ok, f"certificate failed for (k={k}, p={p})"
        # the verdict sweeps the depth-3 box: G is p-integral on it
        assert ramanujan_verdict(k, p, 3).ok, f"verdict failed for (k={k}, p={p})"
    print(
        "ACCEPTANCE 4: PASS - depth-4 sweeps hold (mod 23, four 2k-5 "
        "weights, four p-1 weights); all 9 cusp certificates check out"
    )


def test_acceptance_5_structural_properties():
    """Lift structure, restriction homomorphism, and elliptic congruences."""
    box = whole_box(3)

    # cusp forms: integral, vanishing off rank 2, leading coefficient 1
    for f in (F("X10"), F("X12"), F("X14")):
        assert f.coeff(T0) == 1
        for T in box:
            a = f.coeff(T)
            assert a.denominator == 1
            if T.two_det() == 0:
                assert a == 0

    # lifted coefficients depend only on (content, doubled determinant)
    for f in (F("G4H"), F("G10H"), F("X10"), F("X14")):
        seen: dict = {}
        for T in box:
            if T == ZERO_INDEX:
                continue
            key = (T.class_key()[1], T.two_det())
            if key in seen:
                assert f.coeff(T) == seen[key], f"{f.weight} at {T}"
            else:
                seen[key] = f.coeff(T)

    # lifted coefficients recombine from the primitive table by divisor sums
    for f, k in ((F("G10H"), 10), (F("X14"), 14)):
        primitive = {
            T.two_det(): f.coeff(T)
            for T in box
            if T != ZERO_INDEX and T.class_key()[1] == 1
        }
        checked = skipped = 0
        for T in box:
            if T == ZERO_INDEX:
                continue
            eps, td = T.class_key()[1], T.two_det()
            needed = [td // (d * d) for d in range(1, eps + 1) if eps % d == 0]
            if any(ell not in primitive for ell in needed):
                skipped += 1
                assert max(needed) > 6
                continue
            checked += 1
            total = sum(
                Fraction(d) ** (k - 1) * primitive[td // (d * d)]
                for d in range(1, eps + 1)
                if eps % d == 0
            )
            assert f.coeff(T) == total, f"weight {k} at {T}"
        assert checked > 1000 and skipped < 40

    # restricting to degree 1 is a ring homomorphism onto classical series
    e4h, e6h = build_form("E4H", 2), build_form("E6H", 2)
    prod = mul(e4h, e6h)
    assert siegel_phi(prod) == _mul(siegel_phi(e4h), siegel_phi(e6h))
    for k in (4, 6, 10, 12):
        restricted = siegel_phi(F(f"E{k}H"))
        assert restricted == eisenstein_q(k, len(restricted) - 1)

    # weight-12 elliptic series minus the discriminant series vanishes mod 691
    g12 = tuple(-bernoulli(12) / 24 * c for c in eisenstein_q(12, 20))
    assert g12[0] == Fraction(691, 65520)
    for n in range(1, 21):
        diff = g12[n] - tau(n)
        assert diff.denominator == 1 and diff.numerator % 691 == 0

    # tau vanishes mod 23 at primes inert for the discriminant -23
    swept = 0
    for p in range(2, 201):
        if not is_prime(p) or kronecker(-23, p) != -1:
            continue
        swept += 1
        assert tau(p) % 23 == 0, f"tau({p})"
    assert swept >= 10
    print(
        "ACCEPTANCE 5: PASS - cusp/integrality/normalization, content-"
        "determinant dependence, divisor-sum recombination, restriction "
        "homomorphism, and both elliptic mod-691/mod-23 sweeps all hold"
    )
