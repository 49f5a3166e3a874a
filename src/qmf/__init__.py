"""Exact Fourier coefficients and congruences of degree-2 quaternionic
modular forms over the Hurwitz order."""

from .exactnum import bernoulli, is_prime, kronecker, ord_p, sigma
from .congr import CongCheck, cong_mod
from .fexp import FourierExpansion
from .forms import MaassTable, build_form, form_table, maass_lift, x14_closed
from .quatlat import QuatCoord
from .series import QSeries, express_in_e4_e6
from .tmat import TMatrix, parse_tmatrix

__version__ = "0.1.0"

__all__ = [
    "CongCheck",
    "FourierExpansion",
    "MaassTable",
    "QSeries",
    "QuatCoord",
    "TMatrix",
    "bernoulli",
    "build_form",
    "cong_mod",
    "express_in_e4_e6",
    "form_table",
    "is_prime",
    "kronecker",
    "maass_lift",
    "ord_p",
    "parse_tmatrix",
    "sigma",
    "x14_closed",
]
