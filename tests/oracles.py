"""Test oracles: reference computations that only the tests call.

They restate a claim of the package by a second route (the product rule
for Newton polygons, a brute-force group closure and a Schreier-Sims
group order against the S_n rules, pairwise fingerprint comparison
against the class index, the subresultant PRS against the modular
resultant, IntPolynomial products against family.family_coeffs) or
bundle package calls the way a test reads them.
Permutations are image tuples on {0..n-1}.
"""
from __future__ import annotations

from fractions import Fraction

from hyperfield.census import FieldFingerprint
from hyperfield.errors import ConstantPolynomial, DegreeCapExceeded, ZeroInput
from hyperfield.factor import DEFAULT_DEGREE_CAP, factor_over_q
from hyperfield.family import FamilyShape, HyperellipticCurve, Specialization
from hyperfield.intpoly import IntPolynomial
from hyperfield.newton import (
    CycleCertificate,
    NewtonPolygon,
    certificates_from_polygon,
    newton_polygon,
    poly_digest,
)
from hyperfield.perms import CycleType


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


# -- family members ------------------------------------------------------------


def g_poly(s: Specialization, shape: FamilyShape) -> IntPolynomial:
    """g of a specialization: its a, and the leading 1 of a monic g."""
    return IntPolynomial(list(s.a) + ([1] if shape.monic_g else []))


def family_product(curve: HyperellipticCurve, shape: FamilyShape, s: Specialization) -> IntPolynomial:
    """F = g^2 - f*h^2 from IntPolynomial products, whatever its degree."""
    return g_poly(s, shape).square() - curve.f * s.h_poly(shape).square()


# -- resultant and discriminant ---------------------------------------------


def prs_resultant(a: IntPolynomial, b: IntPolynomial) -> int:
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


def prs_discriminant(p: IntPolynomial) -> int:
    """(-1)^(d(d-1)/2) Res(p, p') / lc(p) with the PRS resultant."""
    d = p.degree
    if d < 1:
        raise ConstantPolynomial("discriminant requires degree >= 1")
    if d == 1:
        return 1
    dp = p.derivative()
    if dp.is_zero():
        return 0
    r = prs_resultant(p, dp)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, p.lc)
    assert rem == 0, "Res(p, p') must be divisible by lc(p)"
    return q


# -- permutations -----------------------------------------------------------

Perm = tuple[int, ...]

CLOSURE_CAP = 9
ORDER_CAP = 16


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p*q)(x) = p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def from_cycles(n: int, cycles) -> Perm:
    """Permutation from 0-based cycles, e.g. from_cycles(4, [(0,1)])."""
    out = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
            out[a] = b
    return tuple(out)


def cycle_type(p: Perm) -> CycleType:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        parts.append(ln)
    parts.sort(reverse=True)
    return tuple(parts)


def canonical_of_type(t: CycleType, n: int) -> Perm:
    """Canonical placement: consecutive cycles, e.g. [2,1,1] -> (0 1)."""
    if sum(t) != n:
        raise ValueError(f"type {t} does not sum to {n}")
    cycles, start = [], 0
    for part in t:
        cycles.append(tuple(range(start, start + part)))
        start += part
    return from_cycles(n, cycles)


# -- orbits, closure, order -------------------------------------------------


def orbit(gens: list[Perm], x: int) -> set[int]:
    out = {x}
    queue = [x]
    for y in queue:
        for g in gens:
            z = g[y]
            if z not in out:
                out.add(z)
                queue.append(z)
    return out


def is_transitive(gens: list[Perm]) -> bool:
    if not gens:
        return False
    n = len(gens[0])
    return len(orbit(gens, 0)) == n


def closure(gens: list[Perm], cap: int = CLOSURE_CAP) -> frozenset[Perm]:
    """Full element set of the generated group (n <= cap)."""
    gens = [tuple(g) for g in gens]
    if not gens:
        return frozenset()
    n = len(gens[0])
    if n > cap:
        raise DegreeCapExceeded(f"closure enumeration capped at degree {cap}")
    seen = {identity(n)}
    queue = [identity(n)]
    for p in queue:
        for g in gens:
            q = compose(g, p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return frozenset(seen)


def group_order(gens: list[Perm], cap: int = ORDER_CAP) -> int:
    """Exact order via an incremental Schreier-Sims stabilizer chain."""
    gens = [tuple(g) for g in gens]
    if gens and len(gens[0]) > cap:
        raise DegreeCapExceeded(f"stabilizer chains capped at degree {cap}")
    gens = [g for g in gens if any(i != x for i, x in enumerate(g))]
    if not gens:
        return 1
    n = len(gens[0])
    ident = identity(n)
    base: list[int] = []
    strong: list[list[Perm]] = []
    trans: list[dict[int, Perm]] = []

    def add_base_point(g: Perm):
        for x in range(n):
            if g[x] != x:
                base.append(x)
                strong.append([])
                trans.append({})
                return

    def orbit_transversal(i: int):
        pt = base[i]
        t = {pt: ident}
        queue = [pt]
        for x in queue:
            for g in strong[i]:
                y = g[x]
                if y not in t:
                    t[y] = compose(g, t[x])
                    queue.append(y)
        trans[i] = t

    def strip(g: Perm, i: int):
        for j in range(i, len(base)):
            x = g[base[j]]
            u = trans[j].get(x)
            if u is None:
                return g, j
            g = compose(inverse(u), g)
        return g, len(base)

    def complete_level(i: int):
        orbit_transversal(i)
        while True:
            clean = True
            for x in list(trans[i]):
                ux = trans[i][x]
                for g in strong[i]:
                    y = g[x]
                    uy = trans[i].get(y)
                    if uy is None:
                        orbit_transversal(i)
                        uy = trans[i][y]
                    sg = compose(inverse(uy), compose(g, ux))
                    if sg == ident:
                        continue
                    h, j = strip(sg, i + 1)
                    if h != ident:
                        if j == len(base):
                            add_base_point(h)
                        for k in range(i + 1, j + 1):
                            strong[k].append(h)
                        for k in range(j, i, -1):
                            complete_level(k)
                        clean = False
            if clean:
                return

    for g in gens:
        j = 0
        while j < len(base) and g[base[j]] == base[j]:
            j += 1
        if j == len(base):
            add_base_point(g)
        for k in range(j + 1):
            strong[k].append(g)
    for i in range(len(base) - 1, -1, -1):
        complete_level(i)
    out = 1
    for t in trans:
        out *= len(t)
    return out


# -- irreducibility and field fingerprints -------------------------------------


def is_irreducible(p: IntPolynomial, cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """True iff p is irreducible over Q (degree >= 1; content ignored)."""
    if p.degree < 1:
        return False
    prim = p.primitive()
    fs = factor_over_q(prim, cap=cap)
    return len(fs) == 1


def compatible(a: FieldFingerprint, b: FieldFingerprint) -> bool:
    """Equal wherever both are defined (same prime sampled)."""
    if a.degree != b.degree:
        return False
    mine = dict(a.entries)
    for p, t in b.entries:
        if p in mine and mine[p] != t:
            return False
    return True
