"""hyperfield: number fields generated by algebraic points on hyperelliptic curves.

Exact-arithmetic toolkit: Newton-polygon Galois certificates,
specialization recipes for the family F = g^2 - f*h^2, and a census of
coefficient boxes with field-class counting and growth-exponent
calculus. See the CLI (`python -m hyperfield ...` or the `hyperfield`
script) for the batch surface.
"""
from ._kernels import BACKEND as KERNEL_BACKEND
from .intpoly import IntPolynomial, format_poly, parse_poly
from .family import FamilyShape, HyperellipticCurve, Recipe, Specialization

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "IntPolynomial",
    "format_poly",
    "parse_poly",
    "FamilyShape",
    "HyperellipticCurve",
    "Recipe",
    "Specialization",
    "__version__",
]
