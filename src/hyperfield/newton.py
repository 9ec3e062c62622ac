"""p-adic Newton polygons and the cycle certificates they justify.

The polygon of f = sum k_i x^i at p is the lower convex hull of the
points (i, v_p(k_i)); v_p(0) = INFINITY by convention, which here means
zero coefficients are simply omitted from the hull (same hull, simpler
code). A segment of length l and slope s accounts for l roots of
valuation -s. When the slope r/l is already in lowest terms and
gcd(l, p) = 1, the segment certifies an l-cycle in the Galois group
(tame, totally ramified local factor).

Polynomials with constant term zero are handled by starting the polygon
at the first nonzero coefficient and reporting the stripped power of x
separately (`x_power`).

Everything here is exact: integer valuations, Fraction slopes.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import BadPrime, ZeroPolynomial
from .factor import is_prime
from .intpoly import IntPolynomial, format_poly

INFINITY = math.inf


def valuation(x, p: int):
    """p-adic valuation of an int or Fraction; INFINITY at 0. Raises
    BadPrime unless p is prime."""
    if not is_prime(p):
        raise BadPrime(f"{p} is not prime")
    if x == 0:
        return INFINITY
    if isinstance(x, Fraction):
        return valuation(x.numerator, p) - valuation(x.denominator, p)
    x = abs(int(x))
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class Segment(NamedTuple):
    length: int
    slope: Fraction


class NewtonPolygon(NamedTuple):
    prime: int
    vertices: tuple[tuple[int, int], ...]  # lattice points, strictly increasing i
    x_power: int = 0  # multiplicity of the root 0, stripped before the hull

    @property
    def segments(self) -> tuple[Segment, ...]:
        out = []
        for (i0, v0), (i1, v1) in zip(self.vertices, self.vertices[1:]):
            out.append(Segment(i1 - i0, Fraction(v1 - v0, i1 - i0)))
        return tuple(out)

    def find_segment(self, length: int, slope: Fraction) -> Segment | None:
        for seg in self.segments:
            if seg.length == length and seg.slope == slope:
                return seg
        return None

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "segments": [
                {"length": s.length, "slope_num": s.slope.numerator, "slope_den": s.slope.denominator}
                for s in self.segments
            ],
            "cycles": [c.cycle_length for c in certificates_from_polygon(self)],
        }


class CycleCertificate(NamedTuple):
    """Evidence that Gal(f/Q) contains a cycle of length `cycle_length`."""

    prime: int
    cycle_length: int
    slope: Fraction
    witness_digest: str


def poly_digest(p: IntPolynomial) -> str:
    return hashlib.sha256(format_poly(p).encode()).hexdigest()[:16]


def newton_polygon(p: IntPolynomial, q: int) -> NewtonPolygon:
    """Lower convex hull of {(i, v_q(k_i)) : k_i != 0}, exact. Raises
    BadPrime unless q is prime (valuation checks it)."""
    if p.is_zero():
        raise ZeroPolynomial("Newton polygon of 0 is undefined")
    points = [(i, valuation(c, q)) for i, c in enumerate(p.coeffs) if c != 0]
    x_power = points[0][0]
    # Monotone chain, lower hull only; exact integer cross products.
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) <= (pt[0] - x0) * (y1 - y0):
                hull.pop()
            else:
                break
        hull.append(pt)
    return NewtonPolygon(prime=q, vertices=tuple(hull), x_power=x_power)


class FactorBlock(NamedTuple):
    """Q_p-factor of degree `length`; irreducible parts have degree divisible by `divisor`."""

    length: int
    divisor: int
    irreducible: bool


def factorization_shape(np_: NewtonPolygon) -> list[FactorBlock]:
    """Per-segment factor constraints: reduced slope r'/l' forces l' | deg."""
    out = []
    for seg in np_.segments:
        l_red = seg.slope.denominator
        out.append(FactorBlock(length=seg.length, divisor=l_red, irreducible=(l_red == seg.length)))
    if np_.x_power:
        out.insert(0, FactorBlock(length=np_.x_power, divisor=1, irreducible=(np_.x_power == 1)))
    return out


def certificates_from_polygon(np_: NewtonPolygon, digest: str = "") -> list[CycleCertificate]:
    """One certificate per segment whose reduced slope denominator equals its
    length (gcd(r, l) = 1) with l coprime to the prime; empty list otherwise."""
    out = []
    for seg in np_.segments:
        if seg.slope == 0 or seg.length == 1:
            continue
        if seg.slope.denominator == seg.length and math.gcd(seg.length, np_.prime) == 1:
            out.append(
                CycleCertificate(
                    prime=np_.prime, cycle_length=seg.length, slope=seg.slope, witness_digest=digest
                )
            )
    return out
