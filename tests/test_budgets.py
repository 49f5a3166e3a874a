"""Operation-count budgets: how many times the costly steps run, counted
through monkeypatched wrappers. Timings drift too much between runs to gate
on, but these counts are deterministic, so a cost that was removed cannot
come back unnoticed. Each budget is the count of the code as it stands; a
change that raises one says so, and why, in CHANGES.md."""

import pytest

from qmf import cli, congr, exactnum, forms, tmat


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls in the
    returned list, one entry per call."""
    calls, inner = [], getattr(module, name)

    def counted(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


# Big-integer products per cusp row built from an empty table cache: f8 is
# one product eta(q) eta(q^2) and three squarings (X10), f10 one more (X12),
# and Delta = eta^24 is Jacobi's eta^3 squared three times (X14).
MUL_BUDGET = {"X10": 4, "X12": 5, "X14": 3}


@pytest.mark.parametrize("name", MUL_BUDGET)
def test_cusp_row_products(monkeypatch, name):
    monkeypatch.setattr(forms, "_TABLES", {})
    calls = counting(monkeypatch, forms, "_mul")
    forms.form_table(name, 40)
    assert len(calls) == MUL_BUDGET[name]


# Bytes _pack writes per cusp row built from an empty table cache, at L = 40
# and L = 400: 2 sum w n over the row's _muls, as each packs both factors in
# n slots of w bytes, so a wider slot or a longer factor shows here.
PACKED_BUDGET = {
    ("X10", 40): 902, ("X12", 40): 1312, ("X14", 40): 1066,
    ("X10", 400): 12030, ("X12", 400): 17644, ("X14", 400): 12832,
}


@pytest.mark.parametrize("name, L", PACKED_BUDGET)
def test_cusp_row_bytes_packed(monkeypatch, name, L):
    monkeypatch.setattr(forms, "_TABLES", {})
    packed, inner = [], forms._pack

    def pack(xs, w):
        packed.append(w * len(xs))
        return inner(xs, w)

    monkeypatch.setattr(forms, "_pack", pack)
    forms.form_table(name, L)
    assert sum(packed) == PACKED_BUDGET[name, L]


# Class-key folds of class_counts(N): one per distinct (n*m, gcd(n, m))
# block and histogram key of norm <= 4nm.
CLASS_KEY_BUDGET = {4: 202, 8: 2304, 20: 72130}


@pytest.mark.parametrize("N", CLASS_KEY_BUDGET)
def test_class_counts_folds(monkeypatch, N):
    calls = counting(monkeypatch, tmat, "_class_key")
    tmat.class_counts(N)
    assert len(calls) == CLASS_KEY_BUDGET[N]


def table_builds(monkeypatch):
    """Empty the table cache and record each table build as (form, L), in
    the returned list."""
    monkeypatch.setattr(forms, "_TABLES", {})
    builds, eisenstein = [], forms._eisenstein_table

    def build_eisenstein(k, g, L):
        builds.append((f"{'G' if g else 'E'}{k}H", L))
        return eisenstein(k, g, L)

    monkeypatch.setattr(forms, "_eisenstein_table", build_eisenstein)
    for name, build in list(forms._CUSP_TABLES.items()):

        def build_cusp(L, name=name, build=build):
            builds.append((name, L))
            return build(L)

        monkeypatch.setitem(forms._CUSP_TABLES, name, build_cusp)
    return builds


def run_cli(capsys, command):
    assert cli.main(command.split()) == 0
    capsys.readouterr()


# Table builds per CLI command from an empty table cache. The cusp rows are
# eta products and read no other table; the certificate's E4/E6 monomials
# read E4H's and E6H's restrictions, from length-0 tables.
TABLE_BUILDS = {
    "verify ramanujan --k 14 --p 691 --depth 4": [
        ("E4H", 0), ("E6H", 0), ("G14H", 32), ("X14", 32),
    ],
    "verify theta --depth 4": [
        ("G4H", 32), ("G6H", 32), ("X10", 32), ("X14", 32),
    ],
    "coeff --form X12 --T 3,3,1,1,0,0": [("X12", 17)],
    "coeff --form E4H --T 1000036000099,0,0,0,0,0": [("E4H", 0)],
}


@pytest.mark.parametrize("command", TABLE_BUILDS)
def test_table_builds_per_command(monkeypatch, capsys, command):
    builds = table_builds(monkeypatch)
    run_cli(capsys, command)
    assert sorted(builds) == TABLE_BUILDS[command]


# factorize calls of one coeff from an empty table cache: a content-2 index
# reads divisors(2), a content-1 index factors nothing.
FACTORIZE_BUDGET = {
    "coeff --form X14 --T 2,2,2,2,0,0": 1,
    "coeff --form X12 --T 3,3,1,1,0,0": 0,
}


@pytest.mark.parametrize("command", FACTORIZE_BUDGET)
def test_factorize_calls_per_command(monkeypatch, capsys, command):
    monkeypatch.setattr(forms, "_TABLES", {})
    calls = counting(monkeypatch, exactnum, "factorize")
    run_cli(capsys, command)
    assert len(calls) == FACTORIZE_BUDGET[command]


def test_content_past_trial_division_splits_once(monkeypatch, capsys):
    # the content 1000003 * 1000033 of a rank-1 index is past trial
    # division, and one rho call splits it, where a scan for divisors would
    # take up to 10^12 steps
    monkeypatch.setattr(forms, "_TABLES", {})
    calls = counting(monkeypatch, exactnum, "_rho_factor")
    run_cli(capsys, "coeff --form E4H --T 1000036000099,0,0,0,0,0")
    assert len(calls) == 1


def test_certificate_factors_nothing(monkeypatch):
    # the certificate reads G's, E4H's and E6H's restrictions from one
    # sigma_row each, not as class coefficients through divisors(j)
    monkeypatch.setattr(forms, "_TABLES", {})
    calls = counting(monkeypatch, exactnum, "factorize")
    assert congr.build_chi(14, 691, 4).ok
    assert len(calls) == 0


# Class coefficients read per command from an empty table cache. A sweep of
# two class functions reads each table side once per class of the box (46
# classes at depth 4, 25 at depth 3): ramanujan reads G twice in its
# integrality sweep and G and the target in its target sweep, theta two
# tables in each of its two sweeps, ep1 one table against the constant 1,
# and mod23 X14 twice per class in its corollary. A nonresidue sweep reads
# its table at the nonresidue classes only (14 for mod23, 16 for congeis);
# the table reads its form once per class.
CLASS_COEFF_BUDGET = {
    "verify ramanujan --k 14 --p 691 --depth 4": 184,
    "verify ramanujan --k 12 --p 31 --depth 3": 50,
    "verify theta --depth 4": 184,
    "verify mod23 --depth 4": 106,
    "verify congeis --k 6 --depth 4": 16,
    "verify ep1 --p 13 --depth 4": 46,
    "table --form G12H --max 4 --mod 691": 46,
}


@pytest.mark.parametrize("command", CLASS_COEFF_BUDGET)
def test_class_coefficients_per_command(monkeypatch, capsys, command):
    monkeypatch.setattr(forms, "_TABLES", {})
    calls = counting(monkeypatch, forms.MaassTable, "class_coeff")
    run_cli(capsys, command)
    assert len(calls) == CLASS_COEFF_BUDGET[command]
