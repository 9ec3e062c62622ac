"""Dense exact univariate polynomial arithmetic over Z.

Polynomials are immutable tuples of coefficients in ascending degree:
``(1, 1, 0, 1)`` is x^3 + x + 1, and the zero polynomial is the empty
tuple. Every operation returns a new value.

The interchange text format used by the CLI and the census CSV is
comma-separated base-10 integers, ascending degree ("1,1,0,1"); the
round trip is bit-exact.

Resultant sign convention (fixed, also asserted in the tests):
Res(a, b) = lc(a)^deg(b) * prod b(alpha_i) over the roots alpha_i of a,
which equals the Sylvester determinant convention
lc(a)^deg(b) * lc(b)^deg(a) * prod (alpha_i - beta_j).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import PolyParseError, ZeroInput, ZeroScale


def _trim(coeffs: Iterable) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, dense ascending coefficients, no trailing zeros."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _trim(int(c) for c in coeffs))

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def square(self) -> "IntPolynomial":
        return self * self

    def __pow__(self, e: int) -> "IntPolynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = IntPolynomial((1,))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- evaluation and calculus ------------------------------------------

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i)

    # -- integer-exact division -------------------------------------------

    def divmod_exact(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Quotient and remainder when every leading-term division is exact in Z.

        Raises ValueError when a coefficient division is inexact; use
        pseudo_rem for the general case.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        d = other.coeffs
        q = [0] * max(0, len(r) - len(d) + 1)
        while len(r) >= len(d) and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(d):
                break
            t, rem = divmod(r[-1], d[-1])
            if rem:
                raise ValueError("inexact polynomial division")
            shift = len(r) - len(d)
            q[shift] = t
            for i, c in enumerate(d):
                r[shift + i] -= t * c
        return IntPolynomial(q), IntPolynomial(r)

    def divides(self, other: "IntPolynomial") -> bool:
        """True iff self divides other in Z[x]."""
        if self.is_zero():
            return other.is_zero()
        try:
            _, r = other.divmod_exact(self)
        except ValueError:
            return False
        return r.is_zero()

    def pseudo_rem(self, other: "IntPolynomial") -> "IntPolynomial":
        """prem(self, other): remainder of lc(other)^(delta+1) * self by other."""
        if other.is_zero():
            raise ZeroDivisionError("pseudo-remainder by zero")
        r = list(self.coeffs)
        d = other.coeffs
        lcd = d[-1]
        delta = len(r) - len(d)
        if delta < 0:
            return self
        e = delta + 1
        while True:
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(d):
                break
            t = r[-1]
            shift = len(r) - len(d)
            r = [lcd * c for c in r]
            for i, c in enumerate(d):
                r[shift + i] -= t * c
            r.pop()
            e -= 1
        return IntPolynomial(c * lcd**e for c in r)

    # -- content, gcd ------------------------------------------------------

    def content(self) -> int:
        """gcd of the coefficients, with the sign of the leading coefficient."""
        if self.is_zero():
            return 0
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g if self.lc > 0 else -g

    def primitive(self) -> "IntPolynomial":
        c = self.content()
        if c in (0, 1):
            return self
        return IntPolynomial(x // c for x in self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({format_poly(self)!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            mag = "" if (abs(c) == 1 and i > 0) else str(abs(c))
            var = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            sep = "" if i == 1 or i == 0 or not mag else "*"
            term = mag + sep + var
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append((" - " if c < 0 else " + ") + term)
        return "".join(parts)


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd in Z[x], leading coefficient positive."""
    if a.is_zero():
        g = b.primitive()
    elif b.is_zero():
        g = a.primitive()
    else:
        cont = math.gcd(abs(a.content()), abs(b.content()))
        a, b = a.primitive(), b.primitive()
        while not b.is_zero():
            r = a.pseudo_rem(b).primitive()
            a, b = b, r
        g = a.primitive() * cont
    return g if g.lc >= 0 else -g


# -- change of variables -------------------------------------------------


def translate(p: IntPolynomial, k: int) -> IntPolynomial:
    """p(x + k), by iterated synthetic (Horner) shifts; exact."""
    if p.is_zero() or k == 0:
        return p
    b = list(p.coeffs)
    for i in range(len(b) - 1):
        for j in range(len(b) - 2, i - 1, -1):
            b[j] += k * b[j + 1]
    return IntPolynomial(b)


def scale_x(p: IntPolynomial, m: int) -> IntPolynomial:
    """p(m*x)."""
    if m == 0:
        raise ZeroScale("scale_x requires m != 0")
    pw = 1
    out = []
    for c in p.coeffs:
        out.append(c * pw)
        pw *= m
    return IntPolynomial(out)


def monicize(f: IntPolynomial) -> IntPolynomial:
    """The monic model c^(d-1) * f(x/c) for c = lc(f); integral by construction."""
    if f.is_zero() or f.degree < 1:
        raise ValueError("monicize requires degree >= 1")
    c, d = f.lc, f.degree
    if c == 1:
        return f
    return IntPolynomial([f[i] * c ** (d - 1 - i) for i in range(d)] + [1])


# -- resultant, discriminant, squarefreeness ------------------------------


def resultant(a: IntPolynomial, b: IntPolynomial) -> int:
    """Exact resultant via the subresultant pseudo-remainder sequence.

    Convention: Res(a, b) = lc(a)^deg(b) * prod b(alpha_i), so e.g.
    Res(x-2, x-3) = -1.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroInput("resultant of the zero polynomial")
    s = 1
    if a.degree < b.degree:
        if (a.degree * b.degree) % 2:
            s = -s
        a, b = b, a
    if b.degree == 0:
        return s * b.lc ** a.degree
    ca, cb = abs(a.content()), abs(b.content())
    sa = 1 if a.lc > 0 else -1
    sb = 1 if b.lc > 0 else -1
    # Content and unit factors: Res(u*A, v*B) = u^degB * v^degA * Res(A, B).
    t = (sa * ca) ** b.degree * (sb * cb) ** a.degree
    A = IntPolynomial(x // (sa * ca) for x in a.coeffs)
    B = IntPolynomial(x // (sb * cb) for x in b.coeffs)
    g = h = 1
    while True:
        delta = A.degree - B.degree
        if (A.degree % 2) and (B.degree % 2):
            s = -s
        R = A.pseudo_rem(B)
        if R.is_zero():
            return 0
        denom = g * h**delta
        A = B
        B = IntPolynomial(x // denom for x in R.coeffs)
        g = A.lc
        if delta:
            # h = g^delta / h^(delta-1), exact in Z.
            num = g**delta
            h = num // h ** (delta - 1) if delta > 1 else num
        if B.degree <= 0:
            break
    # Final constant remainder: fold in lc(B)^deg(A) / h^(deg(A)-1).
    num = B.lc ** A.degree
    h_final = num // h ** (A.degree - 1) if A.degree > 1 else num
    return s * t * h_final


def discriminant(p: IntPolynomial) -> int:
    """(-1)^(d(d-1)/2) Res(p, p') / lc(p); exact integer."""
    d = p.degree
    if d < 1:
        raise ValueError("discriminant requires degree >= 1")
    if d == 1:
        return 1
    dp = p.derivative()
    if dp.is_zero():
        return 0
    r = resultant(p, dp)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, p.lc)
    assert rem == 0, "Res(p, p') must be divisible by lc(p)"
    return q


def squarefree(p: IntPolynomial) -> bool:
    """True iff gcd(p, p') is constant, i.e. Disc(p) != 0."""
    if p.degree < 1:
        raise ValueError("squarefree check requires degree >= 1")
    return poly_gcd(p, p.derivative()).degree == 0


# -- text format -----------------------------------------------------------


def format_poly(p: IntPolynomial) -> str:
    return ",".join(str(c) for c in p.coeffs)


def parse_poly(text: str) -> IntPolynomial:
    text = text.strip()
    if not text:
        return IntPolynomial()
    try:
        return IntPolynomial(int(tok.strip()) for tok in text.split(","))
    except ValueError as e:
        raise PolyParseError(f"bad polynomial text {text!r}: {e}") from None
