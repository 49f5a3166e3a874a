"""The elliptic algebra of the Ramanujan certificate.

A truncated q-series is a tuple of Fraction coefficients indexed 0..prec, the
shape of a Maass table row; its weight is the caller's to carry. Products are
forms._mul, the integer product of table rows, which truncates to the shorter
of the two factors: E4 and E6 have integer coefficients, and so have their
monomials. All arithmetic is exact.

The level-1 generators E4 and E6 (constant term 1) are not stated here: they
are the Siegel restrictions of the Eisenstein tables, read from the lift as
forms.form_table(f"E{w}H", 0).restriction(prec), the reading build_chi
uses for the restriction of G. This module only forms their monomials and
writes a weight-k series in them.
"""

from fractions import Fraction

from .forms import _mul, form_table

__all__ = ["e4_e6_monomials", "express_in_e4_e6"]


def e4_e6_monomials(k: int, prec: int) -> dict[tuple[int, int], tuple]:
    """The monomials E4^a * E6^b of weight 4a + 6b = k to precision prec, as
    coefficient tuples keyed by (a, b) in decreasing a; empty when there are
    none. E4 and E6 are the Siegel restrictions of the weight-4 and weight-6
    Eisenstein tables. A series needs its constant term: a negative prec
    raises ValueError."""
    if prec < 0:
        raise ValueError("need at least the constant coefficient")
    out: dict[tuple[int, int], tuple] = {}
    if k < 0 or k % 2:
        return out
    e4, e6 = (form_table(name, 0).restriction(prec) for name in ("E4H", "E6H"))
    for b in range(k // 6 + 1):
        a, rem = divmod(k - 6 * b, 4)
        if not rem:
            mon = (1,) + (0,) * prec
            for factor in (e4,) * a + (e6,) * b:
                mon = _mul(mon, factor)
            out[(a, b)] = tuple(map(Fraction, mon))
    return out


def express_in_e4_e6(k: int, coeffs) -> dict[tuple[int, int], Fraction]:
    """Write the weight-k series with q-coefficients coeffs (indexed
    0..prec) as a polynomial in the weight-4 and weight-6 generators.

    Returns {(a, b): c} with the series = sum c * E4^a * E6^b over exponents
    4a + 6b = k; zero coefficients are dropped. _express solves it from the
    first dim-many q-coefficients, which it matches by construction, and
    finds the first later one it misses: that residual mismatch (the series
    not in the span at weight k) raises ValueError, as do an empty series
    and insufficient precision.
    """
    poly, n = _express(k, e4_e6_monomials(k, len(coeffs) - 1), coeffs)
    if n is not None:
        raise ValueError(
            f"residual mismatch at q^{n}: series is not in the "
            "polynomial span of the weight-4 and weight-6 generators"
        )
    return poly


def _express(k: int, monomials: dict, coeffs) -> tuple[dict, int | None]:
    """The pair (P, n) for coeffs and the weight-k monomials formed to at
    least its prec: P = {(a, b): c} solved exactly from the first
    d = len(monomials) coefficients, and n the first q-power past them where
    P(E4, E6) misses coeffs, or None. The zero series of a weight with no
    monomials is ({}, None); another series there, or prec < d - 1, raises."""
    prec = len(coeffs) - 1
    if not monomials:
        if not any(coeffs):
            return {}, None
        raise ValueError(f"no monomials in weights 4 and 6 have weight {k}")
    pairs = list(monomials)
    basis = list(monomials.values())
    d = len(pairs)
    if prec < d - 1:
        raise ValueError(
            f"need at least {d - 1} q-coefficients beyond the constant, "
            f"have {prec}"
        )
    # exact Gaussian elimination on the leading d x d coefficient matrix
    mat = [[basis[j][i] for j in range(d)] + [Fraction(coeffs[i])] for i in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if mat[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular coefficient system")
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(d):
            if r != col and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    sol = [mat[i][d] for i in range(d)]
    misfits = (
        n for n in range(d, prec + 1) if sum(s * m[n] for s, m in zip(sol, basis)) != coeffs[n]
    )
    return {pairs[j]: sol[j] for j in range(d) if sol[j] != 0}, next(misfits, None)
