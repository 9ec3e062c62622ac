"""Test oracles: reference computations that only the tests call.

They restate a claim of the package by a second route (the product rule
for Newton polygons) or bundle package calls the way a test reads them.
"""
from __future__ import annotations

from fractions import Fraction

from hyperfield.intpoly import IntPolynomial
from hyperfield.newton import (
    CycleCertificate,
    NewtonPolygon,
    certificates_from_polygon,
    newton_polygon,
    poly_digest,
)


def slope_multiset(np_: NewtonPolygon) -> list[Fraction]:
    """Each segment contributes `length` copies of its slope (root valuations, negated)."""
    out = []
    for seg in np_.segments:
        out.extend([seg.slope] * seg.length)
    out.sort()
    return out


def cycle_from_polygon(p: IntPolynomial, q: int) -> list[CycleCertificate]:
    """The cycle certificates of p's Newton polygon at q, with p's digest."""
    return certificates_from_polygon(newton_polygon(p, q), digest=poly_digest(p))


def np_product_check(a: IntPolynomial, b: IntPolynomial, q: int) -> bool:
    """Root valuations of a product are the multiset union."""
    if a.is_zero() or b.is_zero():
        return False
    na, nb, nab = newton_polygon(a, q), newton_polygon(b, q), newton_polygon(a * b, q)
    if nab.x_power != na.x_power + nb.x_power:
        return False
    return slope_multiset(nab) == sorted(slope_multiset(na) + slope_multiset(nb))
