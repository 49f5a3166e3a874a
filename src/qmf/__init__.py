"""Exact Fourier coefficients and congruences of degree-2 quaternionic
modular forms over the Hurwitz order.

The package binds no names: each is imported from the module that defines
it, such as qmf.forms.build_form. Importing qmf, which importing any of
its modules such as qmf.cli does first, loads none of them.
"""
