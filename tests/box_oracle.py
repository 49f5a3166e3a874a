"""Forms built by the degree-2 box product, as oracles for the table code.

These are the constructions qmf used before its forms moved to one-variable
Maass tables. They multiply whole expansions with FourierExpansion.__mul__,
so they share no code path with the table product rule or with the
table-only Ramanujan certificate, and serve as their oracle.
"""

from fractions import Fraction
from functools import lru_cache

from qmf.fexp import FourierExpansion
from qmf.forms import build_form
from qmf.series import express_in_e4_e6


@lru_cache(maxsize=None)
def monomial_h(a, b, N):
    """Product of a copies of E4H and b copies of E6H by the box product."""
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be >= 0")
    if a + b == 0:
        return FourierExpansion.constant(1, N)
    if a + b == 1:
        return build_form("E4H" if a else "E6H", N)
    if a:
        return monomial_h(a - 1, b, N) * monomial_h(1, 0, N)
    return monomial_h(0, b - 1, N) * monomial_h(0, 1, N)


@lru_cache(maxsize=None)
def ring_x10(N):
    diff = monomial_h(1, 1, N) - build_form("E10H", N)
    return diff.scale(Fraction(17, 161280))


@lru_cache(maxsize=None)
def ring_x12(N):
    comb = (
        monomial_h(3, 0, N).scale(Fraction(441, 691))
        + monomial_h(0, 2, N).scale(Fraction(250, 691))
        - build_form("E12H", N)
    )
    return comb.scale(Fraction(21421, 203212800))


@lru_cache(maxsize=None)
def ring_x14(N):
    return monomial_h(1, 0, N) * ring_x10(N)


RING = {"X10": ring_x10, "X12": ring_x12, "X14": ring_x14}


def ring_chi(k, p, N, G=None):
    """chi = G - p * P(E4H, E6H) on the depth-N box, where P expresses G's
    degree-1 restriction divided by p; G defaults to the lifted G<k>H."""
    if G is None:
        G = build_form(f"G{k}H", N)
    poly = express_in_e4_e6(G.siegel_phi().scale(Fraction(1, p)))
    lift = FourierExpansion.zero(k, N)
    for (a, b), c in poly.items():
        lift = lift + monomial_h(a, b, N).scale(c)
    return G - lift.scale(p)
