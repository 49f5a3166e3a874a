"""Exact Fourier coefficients and congruences of degree-2 quaternionic
modular forms over the Hurwitz order.

The names below are read from their modules on first use (PEP 562), so
importing qmf, which importing any of its modules such as qmf.cli does
first, loads none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module of each exported name; __all__ is its keys.
_HOME = {
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
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
