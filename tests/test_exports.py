"""Every name the library exports resolves."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import qmf

PACKAGE = Path(qmf.__file__).resolve().parent


def unresolved(module) -> list[str]:
    """Names in module.__all__ that the module does not bind."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_unresolved_detects_stale_names():
    class Stub:
        __all__ = ["present", "iter_psd"]
        present = None

    assert unresolved(Stub) == ["iter_psd"]


def test_every_export_resolves():
    names = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert len(names) >= 8
    modules = [importlib.import_module(f"qmf.{name}") for name in names]
    found = {m.__name__: unresolved(m) for m in modules if hasattr(m, "__all__")}
    assert "qmf.tmat" in found
    assert {name: stale for name, stale in found.items() if stale} == {}


# Names imported from their home module alone, never from the package, which
# binds no name of its own: one import path per name.
FORMER = {
    "FourierExpansion": "fexp",
    "MaassTable": "forms",
    "QuatCoord": "quatlat",
    "TMatrix": "tmat",
    "bernoulli": "exactnum",
    "build_form": "forms",
    "cong_mod": "congr",
    "express_in_e4_e6": "series",
    "form_table": "forms",
    "is_prime": "exactnum",
    "kronecker": "exactnum",
    "parse_tmatrix": "tmat",
    "residue": "exactnum",
    "x14_closed": "forms",
}


def test_package_binds_no_names():
    # importing qmf loads none of its modules, and the package is its
    # docstring alone: no namespace, loader or version of its own
    probe = "import sys, qmf; print(*sorted(m for m in sys.modules if m.startswith('qmf')))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split() == ["qmf"]
    (body,) = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert isinstance(body, ast.Expr) and isinstance(body.value.value, str)
    absent = ("__all__", "__getattr__", "__version__", "_HOME", *FORMER)
    assert [name for name in absent if hasattr(qmf, name)] == []
    for name, home in FORMER.items():
        assert name in importlib.import_module(f"qmf.{home}").__all__, name


# Second statements of tau and E_k, removed: tau* is the X14 row and E_k the
# Siegel restriction of the Eisenstein table. QSeries, a second representation
# of a q-series, removed: a q-series is a tuple of Fraction coefficients.
# ord_p, the one function returning a float (math.inf at 0), removed: every
# "mod p" fact is read from exactnum.residue. sigma, a second divisor sum,
# removed: sigma_m(l) is sigma_row(m, l)[l]. star_primes, a search no library
# code ran, removed: the tests' oracle runs it through star_condition.
# CongCheck, a second outcome record beside Verdict, removed: a sweep returns
# its claim, and cong_mod the Verdict of that one claim.
REMOVED = (
    "tau", "tau_star", "delta_q", "eisenstein_q", "QSeries", "ord_p", "sigma", "star_primes",
    "CongCheck", "ChiReport",
)


def test_removed_series_names_stay_removed():
    for home in ("qmf.series", "qmf.exactnum", "qmf.congr"):
        module = importlib.import_module(home)
        assert [name for name in REMOVED if hasattr(module, name)] == []
        assert not set(REMOVED) & set(module.__all__)
    # a sweep's claim is the verdict's summand, with no conversion between
    assert not hasattr(importlib.import_module("qmf.congr"), "_claim")
    # the content of T is T.class_key()[1], with no second statement
    assert not hasattr(importlib.import_module("qmf.tmat").TMatrix, "epsilon")
    # a psd T has rank 2 exactly when T.two_det() > 0; T = 0 and t = 0 are
    # parsed or built where a test needs them; build_form is the one lift
    assert not hasattr(importlib.import_module("qmf.tmat").TMatrix, "rank")
    for home, name in (("tmat", "ZERO_TMATRIX"), ("quatlat", "ZERO_QUAT"), ("forms", "maass_lift")):
        module = importlib.import_module(f"qmf.{home}")
        assert not hasattr(module, name) and name not in module.__all__


# What perfbench/ reads of the library: run.py's point-query oracle and
# trace_cli.py's tracer, which imports these modules and wraps their names.
BENCHMARK_READS = {
    "cli": ("main",),
    "congr": (),
    "exactnum": (),
    "fexp": ("FourierExpansion",),
    "forms": ("build_form", "x14_closed"),
    "quatlat": (),
    "series": (),
    "tmat": ("enumerate_psd", "parse_tmatrix"),
}


def test_benchmark_reads_resolve():
    for name, attrs in BENCHMARK_READS.items():
        module = importlib.import_module(f"qmf.{name}")
        assert [a for a in attrs if not hasattr(module, a)] == [], name
    from qmf.forms import build_form, x14_closed
    from qmf.tmat import parse_tmatrix

    T0 = parse_tmatrix("1,1,1,1,0,0")
    assert build_form("X10", 1).coeff(T0) == x14_closed(T0) == 1
