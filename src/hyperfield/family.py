"""Specialization families F = g^2 - f*h^2 on a hyperelliptic curve y^2 = f(x).

Degree bookkeeping (n = max(2*d_g, d + 2*d_h)):

  odd d, even n:  d_g = n/2,       d_h = (n-d-1)/2
  odd d, odd n:   d_g = (n-1)/2,   d_h = (n-d)/2
  even d, even n: d_g = n/2,       d_h = (n-d)/2 - 1   (n >= d+2)

Two shapes per case: the proof shape (all coefficients free, used by the
witness recipes) and the census shape (g monic for even n / even d, h
monic for odd n, the counting family). Recipes apply to proof shapes
only.

Each recipe pins p-adic valuations or residues of a specialization so
that the Newton polygon of F at p is forced, certifying a cycle in the
Galois group (or, for the split recipe, a factorization constraint).
Valuation constraints are realized at the smallest heights: "= 0" as a
unit residue u in [1, p), ">= 1"/"= 1" as p*u, ">= 2"/"= 2" as p^2*u,
with the unit residues drawn from the seed.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DegreeCapExceeded,
    DegreeDrop,
    HypothesisViolated,
    InadmissiblePrime,
    NonCoprimeH,
    SearchExhausted,
    WitnessFailed,
)
from .factor import is_prime, prime_factors, primes_from
from .intpoly import IntPolynomial, discriminant, resultant, scale_x, translate
from .newton import (
    CycleCertificate,
    NewtonPolygon,
    certificates_from_polygon,
    factorization_shape,
    newton_polygon,
    poly_digest,
    valuation,
)

ODD_D_EVEN_N = "ODD_D_EVEN_N"
ODD_D_ODD_N = "ODD_D_ODD_N"
EVEN_D_EVEN_N = "EVEN_D_EVEN_N"

# Largest witness degree. Building a witness takes time n^2 (schoolbook
# products): 0.6-1.2 s per recipe at n = 4096 with HYPERFIELD_PURE=1.
WITNESS_DEGREE_CAP = 4096


class HyperellipticCurve:
    """y^2 = f(x) with f squarefree of degree d >= 3; genus g from d = 2g+1 or 2g+2."""

    __slots__ = ("f",)

    def __init__(self, f: IntPolynomial):
        if f.degree < 3:
            raise HypothesisViolated("curve degree must be >= 3")
        if discriminant(f) == 0:
            raise HypothesisViolated("f must be squarefree")
        self.f = f

    @property
    def d(self) -> int:
        return self.f.degree

    @property
    def genus(self) -> int:
        return (self.d - 1) // 2 if self.d % 2 else (self.d - 2) // 2


class FamilyShape(NamedTuple):
    n: int
    d_g: int
    d_h: int
    case: str
    monic_g: bool = False
    monic_h: bool = False

    @staticmethod
    def _degrees(d: int, n: int) -> tuple[int, int, str]:
        if d % 2 == 1:
            if n < d:
                raise HypothesisViolated(f"odd-degree case requires n >= d (got n={n}, d={d})")
            if n % 2 == 0:
                return n // 2, (n - d - 1) // 2, ODD_D_EVEN_N
            return (n - 1) // 2, (n - d) // 2, ODD_D_ODD_N
        if n % 2 == 1:
            raise HypothesisViolated(f"even-degree case requires even n (got n={n})")
        if n < d + 2:
            raise HypothesisViolated(f"even-degree case requires n >= d+2 (got n={n}, d={d})")
        return n // 2, (n - d) // 2 - 1, EVEN_D_EVEN_N

    @classmethod
    def proof_shape(cls, d: int, n: int) -> "FamilyShape":
        if n > WITNESS_DEGREE_CAP:
            raise DegreeCapExceeded(f"witness degree n exceeds cap {WITNESS_DEGREE_CAP}")
        d_g, d_h, case = cls._degrees(d, n)
        return cls(n=n, d_g=d_g, d_h=d_h, case=case)

    @classmethod
    def census_shape(cls, d: int, n: int) -> "FamilyShape":
        d_g, d_h, case = cls._degrees(d, n)
        monic_h = case == ODD_D_ODD_N
        return cls(n=n, d_g=d_g, d_h=d_h, case=case, monic_g=not monic_h, monic_h=monic_h)

    @property
    def a_len(self) -> int:
        return self.d_g if self.monic_g else self.d_g + 1

    @property
    def b_len(self) -> int:
        return self.d_h if self.monic_h else self.d_h + 1


class Specialization(NamedTuple):
    """Free coefficients, ascending; a monic side omits its leading 1."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def g_poly(self, shape: FamilyShape) -> IntPolynomial:
        coeffs = list(self.a) + ([1] if shape.monic_g else [])
        return IntPolynomial(coeffs)

    def h_poly(self, shape: FamilyShape) -> IntPolynomial:
        coeffs = list(self.b) + ([1] if shape.monic_h else [])
        return IntPolynomial(coeffs)


def build_family_member(curve: HyperellipticCurve, shape: FamilyShape, s: Specialization) -> IntPolynomial:
    """F = g^2 - f*h^2, checked to have degree exactly n."""
    if len(s.a) != shape.a_len or len(s.b) != shape.b_len:
        raise ValueError(
            f"specialization lengths ({len(s.a)}, {len(s.b)}) do not match shape ({shape.a_len}, {shape.b_len})"
        )
    g = s.g_poly(shape)
    h = s.h_poly(shape)
    F = g.square() - curve.f * h.square()
    if F.degree != shape.n:
        raise DegreeDrop(f"family member has degree {F.degree}, expected {shape.n}")
    return F


def check_point_map(curve: HyperellipticCurve, shape: FamilyShape, s: Specialization) -> IntPolynomial:
    """F for s, once x -> (x, g(x)/h(x)) is shown to be defined at every
    root of F: Res(F, h) != 0. At a root alpha, F(alpha) = 0 then gives
    g(alpha)^2 = f(alpha) h(alpha)^2 with h(alpha) != 0, so the point
    (alpha, g(alpha)/h(alpha)) lies on the curve."""
    F = build_family_member(curve, shape, s)
    h = s.h_poly(shape)
    if h.is_zero() or resultant(F, h) == 0:
        raise NonCoprimeH("h vanishes at a root of F; the point map is undefined there")
    return F


# -- recipes ------------------------------------------------------------------

ODD_EVEN_SPLIT = "ODD_EVEN_SPLIT"
ODD_EVEN_N1CYCLE = "ODD_EVEN_N1CYCLE"
ODD_EVEN_TRANSP = "ODD_EVEN_TRANSP"
ODD_ODD_NCYCLE = "ODD_ODD_NCYCLE"
ODD_ODD_QCYCLE = "ODD_ODD_QCYCLE"
D3N3_TRANSP = "D3N3_TRANSP"
EVEN_NCYCLE = "EVEN_NCYCLE"
EVEN_N2CYCLE = "EVEN_N2CYCLE"
K_CYCLE = "K_CYCLE"

ALL_RECIPE_KINDS = (
    ODD_EVEN_SPLIT,
    ODD_EVEN_N1CYCLE,
    ODD_EVEN_TRANSP,
    ODD_ODD_NCYCLE,
    ODD_ODD_QCYCLE,
    D3N3_TRANSP,
    EVEN_NCYCLE,
    EVEN_N2CYCLE,
    K_CYCLE,
)


class Recipe:
    __slots__ = ("kind", "k")

    def __init__(self, kind: str, k: int | None = None):  # k: cycle length for K_CYCLE
        if kind not in ALL_RECIPE_KINDS:
            raise ValueError(f"unknown recipe {kind}")
        if (kind == K_CYCLE) != (k is not None):
            raise ValueError("K_CYCLE takes a cycle length k; other recipes do not")
        self.kind = kind
        self.k = k

    @property
    def label(self) -> str:
        return f"K_CYCLE({self.k})" if self.kind == K_CYCLE else self.kind


_RECIPE_CASES = {
    ODD_EVEN_SPLIT: {ODD_D_EVEN_N},
    ODD_EVEN_N1CYCLE: {ODD_D_EVEN_N},
    ODD_EVEN_TRANSP: {ODD_D_EVEN_N},
    ODD_ODD_NCYCLE: {ODD_D_ODD_N},
    ODD_ODD_QCYCLE: {ODD_D_ODD_N},
    D3N3_TRANSP: {ODD_D_ODD_N},
    EVEN_NCYCLE: {EVEN_D_EVEN_N},
    EVEN_N2CYCLE: {EVEN_D_EVEN_N},
    K_CYCLE: {ODD_D_EVEN_N, ODD_D_ODD_N, EVEN_D_EVEN_N},
}


def select_bertrand_prime(n: int) -> int:
    """Smallest prime q with (n-1)/2 < q < n-1 (exists for odd n > 3)."""
    if n <= 3 or n % 2 == 0:
        raise HypothesisViolated("Bertrand prime selection needs odd n > 3")
    q = next(primes_from((n - 1) // 2 + 1))
    assert q < n - 1, f"no prime in (({n}-1)/2, {n}-1)"  # Bertrand says unreachable
    return q


def _sqrt_mod(a: int, p: int) -> int | None:
    """Smallest m in [1, p) with m^2 = a (mod p), or None; p prime. Euler's
    criterion, then Tonelli-Shanks for a root r: O(log p) multiplications."""
    a %= p
    if a == 0 or pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def _is_normalized_at(f: IntPolynomial, p: int) -> bool:
    if valuation(f[0], p) != 1:
        return False
    return all(c % p == 0 for c in f.coeffs[1:] if c != 0)


def check_admissible(curve: HyperellipticCurve, shape: FamilyShape, recipe: Recipe, p: int) -> None:
    """Raise InadmissiblePrime naming the violated recipe condition."""
    if not is_prime(p):
        raise InadmissiblePrime(f"{p} is not prime")
    if p == 2:
        raise InadmissiblePrime("recipes require an odd prime")
    if shape.case not in _RECIPE_CASES[recipe.kind]:
        raise HypothesisViolated(f"recipe {recipe.label} does not apply to case {shape.case}")
    if shape.monic_g or shape.monic_h:
        raise HypothesisViolated("recipes apply to the proof shape, not the census shape")
    f, n = curve.f, shape.n

    def require_coprime_to_f():
        for i, c in enumerate(f.coeffs):
            if c != 0 and c % p == 0:
                raise InadmissiblePrime(f"p={p} divides coefficient c_{i} of f")

    def require_cycle_coprime(l: int):
        if l % p == 0:
            raise InadmissiblePrime(f"p={p} divides the certified cycle length {l}")

    kind = recipe.kind
    if kind in (ODD_EVEN_SPLIT, ODD_EVEN_N1CYCLE, ODD_ODD_NCYCLE, ODD_ODD_QCYCLE):
        require_coprime_to_f()
        if kind == ODD_EVEN_N1CYCLE:
            require_cycle_coprime(n - 1)
        elif kind == ODD_ODD_NCYCLE:
            require_cycle_coprime(n)
        elif kind == ODD_ODD_QCYCLE:
            require_cycle_coprime(select_bertrand_prime(n))
    elif kind in (ODD_EVEN_TRANSP, K_CYCLE):
        k = 2 if kind == ODD_EVEN_TRANSP else recipe.k
        if not 2 <= k <= shape.n // 2:
            raise HypothesisViolated(f"k-cycle recipe needs 2 <= k <= n/2 (got k={k}, n={n})")
        require_coprime_to_f()
        require_cycle_coprime(k)
        if _sqrt_mod(f[0], p) is None:
            raise InadmissiblePrime(f"c_0 = {f[0]} is not a nonzero quadratic residue mod {p}")
    elif kind == D3N3_TRANSP:
        if shape.n != 3 or curve.d != 3:
            raise HypothesisViolated("D3N3_TRANSP applies only to d = n = 3")
        gate = f[1] ** 2 - 4 * f[0] * f[2]
        if gate == 0:
            raise InadmissiblePrime("c_1^2 - 4 c_0 c_2 = 0; translate the curve first")
        if gate % p == 0:
            raise InadmissiblePrime(f"p={p} divides c_1^2 - 4 c_0 c_2")
        if _sqrt_mod(f[0], p) is None:
            raise InadmissiblePrime(f"c_0 = {f[0]} is not a nonzero quadratic residue mod {p}")
    elif kind in (EVEN_NCYCLE, EVEN_N2CYCLE):
        if not _is_normalized_at(f, p):
            raise InadmissiblePrime(
                f"curve is not p-normalized at p={p} (need v_p(c_0) = 1 and p | c_i for i >= 1; run normalize_even)"
            )
        require_cycle_coprime(n if kind == EVEN_NCYCLE else n - 2)


def find_admissible_prime(
    curve: HyperellipticCurve, shape: FamilyShape, recipe: Recipe, start: int = 3, bound: int = 10_000
) -> int:
    for p in primes_from(max(3, start)):
        if p > bound:
            break
        try:
            check_admissible(curve, shape, recipe, p)
            return p
        except InadmissiblePrime:
            continue
    raise InadmissiblePrime(f"no admissible prime below {bound} for {recipe.label}")


def _unit(rng: random.Random, p: int) -> int:
    return rng.randrange(1, p)


def witness(
    curve: HyperellipticCurve, shape: FamilyShape, recipe: Recipe, p: int, rng_seed: int = 0
) -> Specialization:
    """Smallest-height nonnegative specialization realizing the recipe's
    valuation/congruence display at p; deterministic given the seed."""
    check_admissible(curve, shape, recipe, p)
    rng = random.Random(rng_seed)
    f, n, d_g, d_h = curve.f, shape.n, shape.d_g, shape.d_h
    kind = recipe.kind
    p2 = p * p

    if kind == ODD_EVEN_SPLIT:
        a = [p * _unit(rng, p) for _ in range(d_g)] + [_unit(rng, p)]
        b = [p2 * _unit(rng, p) for _ in range(d_h + 1)]
    elif kind == ODD_EVEN_N1CYCLE:
        a = [_unit(rng, p)] + [p2 * _unit(rng, p) for _ in range(d_g)]
        b = [p2 * _unit(rng, p) for _ in range(d_h)] + [p * _unit(rng, p)]
    elif kind == ODD_ODD_NCYCLE:
        # Leading coefficient b_top^2 c_d must sit at valuation exactly 2
        # for the single (0,0)-(n,2) segment, so v_p(b_top) = 1.
        a = [_unit(rng, p)] + [p2 * _unit(rng, p) for _ in range(d_g)]
        b = [p2 * _unit(rng, p) for _ in range(d_h)] + [p * _unit(rng, p)]
    elif kind == ODD_ODD_QCYCLE:
        q = select_bertrand_prime(n)
        idx = (n - q) // 2
        a = [p2 * _unit(rng, p) for _ in range(d_g + 1)]
        a[idx] = _unit(rng, p)
        b = [p2 * _unit(rng, p) for _ in range(d_h)] + [p * _unit(rng, p)]
    elif kind == EVEN_NCYCLE:
        a = [p * _unit(rng, p) for _ in range(d_g)] + [_unit(rng, p)]
        b = [_unit(rng, p)] + [rng.randrange(p) for _ in range(d_h)]
    elif kind == EVEN_N2CYCLE:
        idx = (n - 2) // 2
        a = [p * _unit(rng, p) for _ in range(d_g + 1)]
        a[idx] = _unit(rng, p)
        b = [_unit(rng, p)] + [rng.randrange(p) for _ in range(d_h)]
    elif kind in (ODD_EVEN_TRANSP, K_CYCLE, D3N3_TRANSP):
        k = 2 if kind in (ODD_EVEN_TRANSP, D3N3_TRANSP) else recipe.k
        a, b = _congruence_witness(curve, shape, k, p, rng, skip_avoid=(kind == D3N3_TRANSP))
    else:  # pragma: no cover
        raise AssertionError(kind)
    return Specialization(tuple(a), tuple(b))


def _congruence_witness(curve, shape, k, p, rng, skip_avoid=False):
    """Shared builder for the transposition/k-cycle congruence displays.

    b_j = 1 throughout; a_0 = m + k0*p makes v_p(F_0) = 1; a_1..a_{k-1}
    clear the low coefficients mod p; a_k avoids the residue that would
    let p divide the degree-k coefficient (skipped for d = n = 3, where
    the quadratic coefficient is a unit by the choice of p).
    """
    f, n, d_g, d_h = curve.f, shape.n, shape.d_g, shape.d_h
    p2 = p * p
    b = [1] * (d_h + 1)
    h = IntPolynomial(b)
    fh2 = f * h.square()
    c0 = f[0]
    m = _sqrt_mod(c0, p)
    qt = ((c0 - m * m) // p) % p
    k0 = 0
    while (2 * m * k0 - qt) % p == 0:
        k0 += 1
    a = [0] * (d_g + 1)
    a[0] = m + k0 * p
    inv2a0 = pow(2 * a[0], -1, p)

    def known(i: int) -> int:
        tot = -fh2[i]
        for u in range(1, i):
            if u <= d_g and 0 <= i - u <= d_g:
                tot += a[u] * a[i - u]
        return tot

    # Clear the coefficients of x^1..x^(k-1) mod p.
    for i in range(1, min(k, d_g + 1)):
        a[i] = (-known(i) * inv2a0) % p
    # Make the degree-k coefficient a unit. For d = n = 3 there is no a_2
    # to steer; p coprime to c_1^2 - 4 c_0 c_2 already guarantees it.
    lead_free = shape.case in (ODD_D_EVEN_N, EVEN_D_EVEN_N)  # degree n needs a[d_g] != 0
    if not skip_avoid:
        forbidden = (-known(k) * inv2a0) % p
        if k == d_g and lead_free:
            # A uniform draw from [1, p) minus `forbidden`, by index arithmetic.
            r = 1 + rng.randrange(p - 2 if forbidden else p - 1)
            a[k] = r + 1 if forbidden and r >= forbidden else r
        else:
            a[k] = (forbidden + 1 + rng.randrange(p - 1)) % p
    for i in range(k + 1, d_g + 1):
        a[i] = rng.randrange(p)
    if lead_free and d_g > k and a[d_g] == 0:
        a[d_g] = _unit(rng, p)
    return a, b


_EXPECTED_SEGMENT = {
    ODD_EVEN_SPLIT: lambda n, q: (n, Fraction(-2, n)),
    ODD_EVEN_N1CYCLE: lambda n, q: (n - 1, Fraction(2, n - 1)),
    ODD_EVEN_TRANSP: lambda n, q: (2, Fraction(-1, 2)),
    ODD_ODD_NCYCLE: lambda n, q: (n, Fraction(2, n)),
    ODD_ODD_QCYCLE: lambda n, q: (q, Fraction(2, q)),
    D3N3_TRANSP: lambda n, q: (2, Fraction(-1, 2)),
    EVEN_NCYCLE: lambda n, q: (n, Fraction(-1, n)),
    EVEN_N2CYCLE: lambda n, q: (n - 2, Fraction(-1, n - 2)),
}


def expected_segment(shape: FamilyShape, recipe: Recipe) -> tuple[int, Fraction]:
    if recipe.kind == K_CYCLE:
        return recipe.k, Fraction(-1, recipe.k)
    q = select_bertrand_prime(shape.n) if recipe.kind == ODD_ODD_QCYCLE else None
    return _EXPECTED_SEGMENT[recipe.kind](shape.n, q)


def verify_witness(
    curve: HyperellipticCurve, shape: FamilyShape, recipe: Recipe, s: Specialization, p: int
) -> tuple[NewtonPolygon, list[CycleCertificate]]:
    """Build F, compute its polygon at p, assert the recipe's predicted
    segment (and for the split recipe the factor-shape constraint)."""
    F = build_family_member(curve, shape, s)
    np_ = newton_polygon(F, p)
    length, slope = expected_segment(shape, recipe)
    seg = np_.find_segment(length, slope)
    if seg is None:
        raise WitnessFailed(
            f"{recipe.label}: expected segment (length {length}, slope {slope}) at p={p}; "
            f"polygon has {[(s_.length, str(s_.slope)) for s_ in np_.segments]}"
        )
    certs = certificates_from_polygon(np_, digest=poly_digest(F))
    if recipe.kind == ODD_EVEN_SPLIT:
        blocks = factorization_shape(np_)
        want = shape.n // 2
        if not any(b.length == shape.n and b.divisor == want for b in blocks):
            raise WitnessFailed(
                f"ODD_EVEN_SPLIT: expected a degree-{shape.n} block with factor degrees divisible by {want}"
            )
    else:
        if not any(c.cycle_length == length for c in certs):
            raise WitnessFailed(f"{recipe.label}: no {length}-cycle certificate at p={p}")
    return np_, certs


# -- even-degree preconditioning ----------------------------------------------


def normalize_even(
    curve: HyperellipticCurve,
    k_bound: int = 200,
    avoid: tuple[int, ...] = (),
) -> tuple[HyperellipticCurve, tuple[int, int]]:
    """Find (k, p) with p odd, p coprime to Disc f (and `avoid`), and
    v_p(f(k)) = 1 after a Hensel adjustment; return the model
    f(p*x + k), whose constant term has valuation 1 and all higher
    coefficients are divisible by p, together with the transform (k, p).
    The primes of each f(k) are tried in ascending order, as
    factor.prime_factors finds them; a cofactor it cannot split within
    its effort cap is not tried.
    """
    f = curve.f
    if f.degree % 2:
        raise HypothesisViolated("normalize_even applies to even-degree curves")
    disc = discriminant(f)
    for k in range(k_bound + 1):
        val = f(k)
        if val == 0:
            continue
        for p in prime_factors(val)[0]:
            if p == 2 or disc % p == 0 or p in avoid:
                continue
            kk = k
            if valuation(f(kk), p) != 1:
                for t in range(p):
                    if valuation(f(k + p * t), p) == 1:
                        kk = k + p * t
                        break
                else:
                    continue
            model = scale_x(translate(f, kk), p)
            return HyperellipticCurve(model), (kk, p)
    raise SearchExhausted(f"no (k, p) found with k <= {k_bound}; raise the bound")


def apply_transform(f: IntPolynomial, k: int, p: int) -> IntPolynomial:
    """Replay a normalize_even transform record: f(p*x + k)."""
    return scale_x(translate(f, k), p)


def translate_for_transposition(curve: HyperellipticCurve, k_bound: int = 200) -> tuple[HyperellipticCurve, int]:
    """Smallest k >= 0 making both c_0 and c_1^2 - 4 c_0 c_2 nonzero after
    translating x by k (needed by the d = n = 3 transposition recipe;
    squarefreeness guarantees f'(x)^2 - 2 f(x) f''(x) != 0, so only
    finitely many k fail)."""
    for k in range(k_bound + 1):
        f = translate(curve.f, k)
        if f[0] != 0 and f[1] ** 2 - 4 * f[0] * f[2] != 0:
            return (curve if k == 0 else HyperellipticCurve(f)), k
    raise SearchExhausted(f"no translation below {k_bound} clears the d=3 transposition gate")
