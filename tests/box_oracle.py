"""The named cusp forms built by the degree-2 box product.

These are the constructions qmf.forms used before the cusp forms moved to
one-variable Maass tables. They multiply whole expansions with
FourierExpansion.__mul__, so they share no code path with the table product
rule and serve as its oracle.
"""

from fractions import Fraction
from functools import lru_cache

from qmf.forms import build_form, monomial_h


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
