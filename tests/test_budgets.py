"""Operation-count budgets: how many times the costly steps run, counted
through monkeypatched wrappers. Timings drift too much between runs to gate
on, but these counts are deterministic, so a cost that was removed cannot
come back unnoticed. Each budget is the count of the code as it stands; a
change that raises one says so, and why, in CHANGES.md."""

import pytest

from qmf import forms, tmat


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls in the
    returned list, one entry per call."""
    calls, inner = [], getattr(module, name)

    def counted(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


# Big-integer products per cusp row built from an empty table cache: two
# per product of rows, for E4 E6 (X10) and for E8 E4 and E6 E6 (X12); X14
# is phi_E4(q^2) R_X10, one product on top of building X10.
MUL_BUDGET = {"X10": 2, "X12": 4, "X14": 3}


@pytest.mark.parametrize("name", MUL_BUDGET)
def test_cusp_row_products(monkeypatch, name):
    monkeypatch.setattr(forms, "_TABLES", {})
    calls = counting(monkeypatch, forms, "_mul")
    forms.form_table(name, 40)
    assert len(calls) == MUL_BUDGET[name]


# Class-key folds of class_counts(N): one per distinct (n*m, gcd(n, m))
# block and histogram key of norm <= 4nm.
CLASS_KEY_BUDGET = {4: 202, 8: 2304, 20: 72130}


@pytest.mark.parametrize("N", CLASS_KEY_BUDGET)
def test_class_counts_folds(monkeypatch, N):
    calls = counting(monkeypatch, tmat, "_class_key")
    tmat.class_counts(N)
    assert len(calls) == CLASS_KEY_BUDGET[N]
