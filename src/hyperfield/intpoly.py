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

resultant and discriminant are modular (Collins, J. ACM 18, 1971; von
zur Gathen and Gerhard, Modern Computer Algebra, section 6.11): the
``resultants`` kernel of ``_kernels`` gives Res mod primes below 2^28,
and Garner's Chinese remaindering combines them. Their product passes
twice Hadamard's bound on the Sylvester determinant, so the answer is
exact for any choice of primes. The subresultant PRS that this replaced
is the tests' oracle (tests/oracles.py).
"""
from __future__ import annotations

import math
from operator import mul
from typing import Iterable

from . import _kernels
from .errors import ConstantPolynomial, PolyParseError, SearchExhausted, ZeroInput, ZeroScale


def _trim(coeffs: Iterable) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class IntPolynomial:
    """Integer polynomial, dense ascending coefficients, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs: tuple[int, ...] = _trim(int(c) for c in coeffs)

    def __eq__(self, other) -> bool:
        if other.__class__ is not IntPolynomial:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # p[i] is 0 past the degree, so the iteration protocol would never stop.
    __iter__ = None

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
        raise ConstantPolynomial("monicize requires degree >= 1")
    c, d = f.lc, f.degree
    if c == 1:
        return f
    return IntPolynomial([f[i] * c ** (d - 1 - i) for i in range(d)] + [1])


# -- resultant and discriminant --------------------------------------------


# The 64 largest primes below 2^28, descending. Below 2^28 the C kernel
# takes a modulus up to degree 255 (lazy_fits in _speed.c); primes near
# 2^31 would send every polynomial of degree 5 or more to pure.py.
RESULTANT_PRIMES = (
    268435399, 268435367, 268435361, 268435337, 268435331, 268435313, 268435291, 268435273,
    268435243, 268435183, 268435171, 268435157, 268435147, 268435133, 268435129, 268435121,
    268435109, 268435091, 268435067, 268435043, 268435039, 268435033, 268435019, 268435009,
    268435007, 268434997, 268434979, 268434977, 268434961, 268434949, 268434941, 268434937,
    268434857, 268434841, 268434827, 268434821, 268434787, 268434781, 268434779, 268434773,
    268434731, 268434721, 268434713, 268434707, 268434703, 268434697, 268434659, 268434623,
    268434619, 268434581, 268434577, 268434563, 268434557, 268434547, 268434511, 268434499,
    268434479, 268434461, 268434401, 268434391, 268434389, 268434373, 268434289, 268434281,
)


def _resultant_primes():
    """RESULTANT_PRIMES, then the primes below them, descending."""
    yield from RESULTANT_PRIMES
    from .factor import is_prime  # factor imports this module, so not at the top

    yield from (q for q in range(RESULTANT_PRIMES[-1] - 2, 2, -2) if is_prime(q))


def resultant(a: IntPolynomial, b: IntPolynomial) -> int:
    """Exact resultant by Collins's modular algorithm: Res(a, b) mod
    primes not dividing lc(a) lc(b), from one kernel call, combined by
    Garner's Chinese remaindering into the symmetric residue. Hadamard's
    bound |Res(a, b)| <= ||a||_2^deg(b) ||b||_2^deg(a) = B on the
    Sylvester determinant fixes the primes: their product passes 2B, so
    the symmetric residue is Res itself, whichever primes are taken.

    Convention: Res(a, b) = lc(a)^deg(b) * prod b(alpha_i), so e.g.
    Res(x-2, x-3) = -1. Raises ZeroInput for a zero operand, and
    SearchExhausted, rather than answer, where 2B passes the product of
    every prime below 2^28 (about 2^(3.9e8)).
    """
    if a.is_zero() or b.is_zero():
        raise ZeroInput("resultant of the zero polynomial")
    # The squared norms N have N < 2^bits(N), so B < 2^E for
    # E = ceil((deg(b) bits(N_a) + deg(a) bits(N_b)) / 2): primes whose
    # product is at least 2^(E + 1) > 2B suffice, and p >= 2^(bits(p) - 1).
    na, nb = sum(map(mul, a.coeffs, a.coeffs)), sum(map(mul, b.coeffs, b.coeffs))
    need = (b.degree * na.bit_length() + a.degree * nb.bit_length() + 1) // 2 + 1
    lcs = a.lc * b.lc
    primes = []
    for p in _resultant_primes():
        if lcs % p:
            primes.append(p)
            need -= p.bit_length() - 1
            if need <= 0:
                break
    else:
        raise SearchExhausted("Hadamard's bound on the resultant exceeds the primes below 2^28")
    res, mod = 0, 1
    for r, p in zip(_kernels.resultants(a.coeffs, b.coeffs, primes), primes):
        res += (r - res) * pow(mod, -1, p) % p * mod
        mod *= p
    return res - mod if 2 * res > mod else res


def discriminant(p: IntPolynomial) -> int:
    """(-1)^(d(d-1)/2) Res(p, p') / lc(p); exact integer."""
    d = p.degree
    if d < 1:
        raise ConstantPolynomial("discriminant requires degree >= 1")
    if d == 1:
        return 1
    r = resultant(p, p.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, p.lc)
    assert rem == 0, "Res(p, p') must be divisible by lc(p)"
    return q


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
