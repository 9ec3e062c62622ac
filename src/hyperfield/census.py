"""Census of specialization boxes: enumeration, certification, counting.

The box of height Y over a census shape bounds each free coefficient by
an exact floor of a rational power of Y (half-integer exponents for the
non-monic side of the even-n family). Enumeration is a deterministic
odometer, most-significant coefficient first (a descending, then b),
each coordinate swept from -bound to +bound.

Every record carries the discriminant and a certification status:
REDUCIBLE, IRREDUCIBLE_UNCERTIFIED, or SN_CERTIFIED. Irreducibility is
decided by (in order) Musser's degree-set intersection over the
splitting types at the first IRREDUCIBILITY_PRIMES good primes, a Newton
polygon that is one irreducible block at one of the first POLYGON_PRIMES
primes not dividing lc(F), then factor_over_q below the degree cap. S_n
certification runs the recognition rules on Frobenius cycle types at the
first fingerprint_primes good primes (not dividing lc(F) * Disc(F)),
read from factor's prime table; they double as the field fingerprint.

Field classes merge records whose fingerprints agree at every shared
prime. The compatible pairs come from an index of Python-int bitsets, one
per (prime, splitting type) and one per prime, rather than from a
comparison of every pair, so there is no key count above which merging
stops. Up to degree ISO_CAP, each merge is checked by isomorphic_exact
(Trager's resultant R_t, searched for a degree-n factor by the same
factor.lift_and_recombine that factor_over_q uses); a failed check is
counted in unconfirmed_classes.

Members with h = 0 (possible only for the even-n shapes, where h has no
forced monic term) are enumerated for the exact-cardinality invariant
but flagged no_point: F = g^2 carries no point of the curve, and the
Hilbert-proportion diagnostics are reported both with and without them.

Field discriminants are never computed (no maximal-order machinery in
scope): the census records the polynomial discriminant Disc(F), an
upper-bound proxy since Disc(F) = [O_K : Z[alpha]]^2 * Disc(K). The
log-scale counting diagnostics are unaffected at this scale.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add, mul

from . import _kernels as kernels
from .errors import (
    BoxTooLarge,
    DegreeCapExceeded,
    HypothesisViolated,
    NonMonic,
    PolyParseError,
    SearchExhausted,
    SearchWindowExceeded,
)
from .factor import DEFAULT_DEGREE_CAP, factor_over_q, lift_and_recombine, musser_degrees, primes_not_dividing
from .family import (
    EVEN_D_EVEN_N,
    ODD_D_EVEN_N,
    ODD_D_ODD_N,
    FamilyShape,
    HyperellipticCurve,
    Specialization,
    build_family_member,
)
from .intpoly import IntPolynomial, discriminant, format_poly, monicize
from .newton import factorization_shape, newton_polygon
from .perms import SN, recognize_sn

REDUCIBLE = "REDUCIBLE"
IRREDUCIBLE_UNCERTIFIED = "IRREDUCIBLE_UNCERTIFIED"
SN_CERTIFIED = "SN_CERTIFIED"


# -- exact floors of rational powers ------------------------------------------


def introot(x: int, k: int) -> int:
    """Largest r with r^k <= x (x >= 0)."""
    if x < 0:
        raise ValueError("introot of a negative number")
    if x == 0 or k == 1:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > x:
        r -= 1
    return r


def floor_pow(y: Fraction, e: Fraction) -> int:
    """floor(y^e) for positive rational y and e with denominator 1 or 2."""
    y = Fraction(y)
    e = Fraction(e)
    if y <= 0:
        raise ValueError("Y must be positive")
    if e.denominator == 1:
        k = e.numerator
        if k < 0:
            raise ValueError("negative exponents not used by the box")
        return y.numerator**k // y.denominator**k
    if e.denominator != 2:
        raise ValueError("box exponents have denominator 1 or 2")
    k = e.numerator  # y^(k/2), k odd
    num, den = y.numerator**k, y.denominator**k
    # floor(sqrt(num/den)) = isqrt(num*den) // den
    return math.isqrt(num * den) // den


# -- the coefficient box -------------------------------------------------------


def box_exponents(shape: FamilyShape) -> list[tuple[str, int, Fraction]]:
    """(side, coefficient index, exponent) for every free coefficient, in
    enumeration order: a most-significant first, then b."""
    out = []
    if shape.case == ODD_D_EVEN_N:
        assert shape.monic_g
        for j in range(shape.d_g - 1, -1, -1):
            out.append(("a", j, Fraction(shape.d_g - j)))
        for j in range(shape.d_h, -1, -1):
            out.append(("b", j, Fraction(shape.d_h - j) + Fraction(1, 2)))
    elif shape.case == ODD_D_ODD_N:
        assert shape.monic_h
        for j in range(shape.d_g, -1, -1):
            out.append(("a", j, Fraction(shape.d_g - j)))
        for j in range(shape.d_h - 1, -1, -1):
            out.append(("b", j, Fraction(shape.d_h - j)))
    elif shape.case == EVEN_D_EVEN_N:
        assert shape.monic_g
        for j in range(shape.d_g - 1, -1, -1):
            out.append(("a", j, Fraction(shape.d_g - j)))
        for j in range(shape.d_h, -1, -1):
            out.append(("b", j, Fraction(shape.d_h + 1 - j)))
    else:  # pragma: no cover
        raise AssertionError(shape.case)
    return out


@dataclass(frozen=True)
class CoefficientBox:
    shape: FamilyShape
    Y: Fraction
    bounds: tuple[tuple[str, int, int], ...]  # (side, index, bound)

    @classmethod
    def build(cls, shape: FamilyShape, Y) -> "CoefficientBox":
        Y = Fraction(Y)
        if Y < 1:
            raise HypothesisViolated("box height Y must be >= 1")
        bounds = tuple((side, j, floor_pow(Y, e)) for side, j, e in box_exponents(shape))
        return cls(shape=shape, Y=Y, bounds=bounds)

    @property
    def cardinality(self) -> int:
        out = 1
        for _, _, b in self.bounds:
            out *= 2 * b + 1
        return out

    def specializations(self):
        """Odometer over the box, most-significant coefficient first."""
        ranges = [range(-b, b + 1) for _, _, b in self.bounds]
        a_len, b_len = self.shape.a_len, self.shape.b_len
        slots = [(side, j) for side, j, _ in self.bounds]
        for values in itertools.product(*ranges):
            a = [0] * a_len
            b = [0] * b_len
            for (side, j), v in zip(slots, values):
                (a if side == "a" else b)[j] = v
            yield Specialization(tuple(a), tuple(b))

    def log_ratio(self) -> float:
        """log(cardinality) / log(Y): compare against the count exponent."""
        if self.Y == 1:
            return float("nan")
        return math.log(self.cardinality) / math.log(self.Y)


# -- field fingerprints --------------------------------------------------------


@dataclass(frozen=True)
class FieldFingerprint:
    degree: int
    entries: tuple[tuple[int, tuple[int, ...]], ...]  # (prime, splitting type)

    @property
    def hash_hex(self) -> str:
        return hashlib.sha1(repr((self.degree, self.entries)).encode()).hexdigest()[:12]

    def compatible(self, other: "FieldFingerprint") -> bool:
        """Equal wherever both are defined (same prime sampled)."""
        if self.degree != other.degree:
            return False
        mine = dict(self.entries)
        for p, t in other.entries:
            if p in mine and mine[p] != t:
                return False
        return True


def fingerprint(F: IntPolynomial, count: int = 50) -> FieldFingerprint:
    """Splitting types at the first `count` primes good for F (not dividing
    lc(F) * Disc(F)), from one kernel call; F must be squarefree. Census
    records are screened and S_n-certified from these types, and certify
    reads them too."""
    primes = primes_not_dividing(F.lc * discriminant(F), count)
    return FieldFingerprint(degree=F.degree, entries=_splitting_entries(F, primes))


def _splitting_entries(F: IntPolynomial, primes: list[int]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(p, splitting type of F mod p) for each good prime p, from one kernel call."""
    return tuple(zip(primes, map(tuple, kernels.splitting_types(F.coeffs, primes))))


# -- census records and classification ----------------------------------------


IRREDUCIBILITY_PRIMES = 5  # fingerprint primes whose splitting types screen for irreducibility
POLYGON_PRIMES = 6  # Newton polygons tried at the first primes not dividing lc(F)
ISO_CAP = 6  # largest degree at which field classes are confirmed by isomorphic_exact


@dataclass(frozen=True)
class CensusConfig:
    fingerprint_primes: int = 50
    factor_cap: int = DEFAULT_DEGREE_CAP
    box_cap: int = 100_000_000
    workers: int = 1


@dataclass(frozen=True)
class CensusRecord:
    spec: Specialization
    F: IntPolynomial
    disc_F: int
    status: str
    fingerprint: FieldFingerprint | None = None
    no_point: bool = False
    class_id: int | None = None


def _np_irreducible(F: IntPolynomial) -> bool:
    """The Newton polygon at some small prime is one irreducible block."""
    return any(
        block.length == F.degree and block.irreducible
        for q in primes_not_dividing(F.lc, POLYGON_PRIMES)
        for block in factorization_shape(newton_polygon(F, q))
    )


def classify_record(
    curve: HyperellipticCurve,
    shape: FamilyShape,
    s: Specialization,
    cfg: CensusConfig,
) -> CensusRecord:
    F = build_family_member(curve, shape, s)
    h = s.h_poly(shape)
    n = F.degree
    if h.is_zero():
        return CensusRecord(s, F, 0, REDUCIBLE, no_point=True)
    disc_F = discriminant(F)
    if disc_F == 0:
        return CensusRecord(s, F, 0, REDUCIBLE)
    good = primes_not_dividing(F.lc * disc_F, cfg.fingerprint_primes)
    # Two kernel calls: the screening primes, then (for irreducible F only)
    # the rest of the fingerprint, which a reducible F never needs.
    entries = _splitting_entries(F, good[:IRREDUCIBILITY_PRIMES])

    if musser_degrees((t for _, t in entries), range(1, n // 2 + 1)) and not _np_irreducible(F):
        if n > cfg.factor_cap:
            raise DegreeCapExceeded(
                f"cannot decide irreducibility at degree {n} above factor cap {cfg.factor_cap}"
            )
        factors = factor_over_q(F, cap=cfg.factor_cap)
        if sum(1 for f in factors if f.degree > 0) > 1:
            return CensusRecord(s, F, disc_F, REDUCIBLE)

    entries += _splitting_entries(F, good[IRREDUCIBILITY_PRIMES:])
    cert = recognize_sn(n, [t for _, t in entries], transitive=True)
    status = SN_CERTIFIED if cert.conclusion == SN else IRREDUCIBLE_UNCERTIFIED
    return CensusRecord(s, F, disc_F, status, fingerprint=FieldFingerprint(n, entries))


def enumerate_box(
    curve: HyperellipticCurve,
    shape: FamilyShape,
    Y,
    cfg: CensusConfig = CensusConfig(),
):
    """Stream of classified CensusRecords in deterministic odometer order."""
    return _classify_box(curve, _capped_box(shape, Y, cfg), cfg, workers=1)


def _capped_box(shape: FamilyShape, Y, cfg: CensusConfig) -> CoefficientBox:
    box = CoefficientBox.build(shape, Y)
    if box.cardinality > cfg.box_cap:
        raise BoxTooLarge(f"box cardinality {box.cardinality} exceeds cap {cfg.box_cap}")
    return box


def _classify_box(curve: HyperellipticCurve, box: CoefficientBox, cfg: CensusConfig, workers: int):
    """Classified records of the whole box, in odometer order: streamed in
    this process, or classified in chunks by a pool of `workers` processes."""
    specs = box.specializations()
    if workers <= 1:
        for s in specs:
            yield classify_record(curve, box.shape, s, cfg)
        return
    from concurrent.futures import ProcessPoolExecutor

    size = max(64, box.cardinality // (workers * 8) + 1)
    chunks = iter(lambda: list(itertools.islice(specs, size)), [])
    with ProcessPoolExecutor(max_workers=workers) as ex:
        for part in ex.map(_classify_chunk, ((curve, box.shape, c, cfg) for c in chunks)):
            yield from part


def _classify_chunk(args):
    curve, shape, specs, cfg = args
    return [classify_record(curve, shape, s, cfg) for s in specs]


# -- (g, h) collision multiplicities ------------------------------------------


def dedupe_gh(records) -> tuple[dict[tuple[int, ...], list[CensusRecord]], int]:
    """Group records by F; return groups and the max (g,h)-multiplicity."""
    groups: dict[tuple[int, ...], list[CensusRecord]] = {}
    for r in records:
        groups.setdefault(r.F.coeffs, []).append(r)
    max_mult = max((len(v) for v in groups.values()), default=0)
    return groups, max_mult


# -- exact isomorphism ---------------------------------------------------------


def _power_sums(f: IntPolynomial, count: int) -> list[int]:
    """Power sums p_0..p_count of the roots of the monic f, by Newton's
    identities (no division: f is monic)."""
    n, a = f.degree, f.coeffs
    sums = [n]
    for k in range(1, count + 1):
        # p_k = -k a_(n-k) - sum_(i=1..min(k-1, n)) a_(n-i) p_(k-i)
        j = min(k - 1, n)
        s = sum(map(mul, a[n - j:n], sums[k - j:k]))
        sums.append(-(k * a[n - k] if k <= n else 0) - s)
    return sums


def _resultant_in_x(F1: IntPolynomial, F2: IntPolynomial, t: int) -> IntPolynomial:
    """R_t(x) = Res_y(F1(y), F2(x + t*y)) for t != 0, which is
    lc1^m * lc2^n * prod (x - (beta_j - t*alpha_i)) over the n roots
    alpha_i of F1 and the m roots beta_j of F2.

    A composed sum (Bostan-Flajolet-Salvy-Schost, J. Symb. Comp. 41,
    2006): with a_i = lc1*alpha_i and b_j = lc2*beta_j, the roots of the
    monic integer models of F1 and F2, the N = nm numbers
    lc1*b_j - t*lc2*a_i = lc1*lc2*(beta_j - t*alpha_i) are algebraic
    integers whose power sums follow from those of a and b by the
    binomial theorem. Newton's identities turn them into the monic
    H(x) = prod (x - lc1*lc2*(beta_j - t*alpha_i)) in Z[x], and
    R_t(x) = lc1^m * lc2^n * H(lc1*lc2*x) / (lc1*lc2)^N. Both steps
    divide integers exactly; a remainder raises ArithmeticError."""
    n, m = F1.degree, F2.degree
    deg = n * m
    u, v = F1.lc, -t * F2.lc
    sa = [s * v**k for k, s in enumerate(_power_sums(monicize(F1), deg))]
    sb = [s * u**k for k, s in enumerate(_power_sums(monicize(F2), deg))]
    # Power sums of u*b_j + v*a_i: P_k = sum_l C(k, l) (u^l pb_l) (v^(k-l) pa_(k-l)).
    power, binom = [], [1]  # binom: row k of Pascal's triangle
    for k in range(deg + 1):
        power.append(sum(map(mul, map(mul, binom, sb), reversed(sa[:k + 1]))))
        binom = [1, *map(add, binom, binom[1:]), 1]
    # Newton's identities for h[k], the coefficient of x^(deg-k) in the
    # monic H: k h[k] = -sum_(i=1..k) h[k-i] P_i.
    h = [1]
    for k in range(1, deg + 1):
        hk, rem = divmod(-sum(map(mul, reversed(h), power[1:k + 1])), k)
        if rem:
            raise ArithmeticError("composed-sum Newton identities must divide exactly")
        h.append(hk)
    # R_t = lc1^m lc2^n H(L x) / L^deg for L = lc1*lc2.
    lcs, scale = F1.lc**m * F2.lc**n, F1.lc * F2.lc
    coeffs = []
    for k in range(deg, -1, -1):
        c, rem = divmod(lcs * h[k], scale**k)
        if rem:
            raise ArithmeticError("R_t must have integer coefficients")
        coeffs.append(c)
    return IntPolynomial(coeffs)


def isomorphic_exact(F1: IntPolynomial, F2: IntPolynomial, cap: int = ISO_CAP) -> bool:
    """Q[x]/(F1) isomorphic to Q[x]/(F2)? Trager-style resultant test.

    R_t(x) = Res_y(F1(y), F2(x + t*y)) factors over Q along Galois orbits
    of beta_j - t*alpha_i; the fields are isomorphic iff R_t has an
    irreducible factor of degree exactly n (for squarefree R_t). Each
    root generates Q(alpha_i, beta_j), so no factor has degree below n
    and the factor search looks at degree n alone.
    """
    n = F1.degree
    if n != F2.degree:
        return False
    if n > cap:
        raise DegreeCapExceeded(f"exact isomorphism capped at degree {cap}")
    if n == 1:
        return True
    if F1.primitive().coeffs == F2.primitive().coeffs:
        return True
    for t in range(1, 40):
        R = _resultant_in_x(F1, F2, t).primitive()
        if R.degree != n * n:
            continue
        disc = discriminant(R)
        if disc == 0:
            continue
        return len(lift_and_recombine(R, disc, (n,))) > 1  # a degree-n factor besides the cofactor
    raise SearchExhausted("no shift t below 40 gives a squarefree R_t of degree n^2")


# -- root and discriminant bounds ---------------------------------------------

_ROOT_SCALE = 1 << 16


def _ceil_root_scaled(value: Fraction, k: int) -> Fraction:
    """Upper bound for value^(1/k) with denominator 2^16; exact outer rounding."""
    scaled = value * Fraction(_ROOT_SCALE) ** k
    # ceil of the k-th root of ceil(scaled)
    num = -(-scaled.numerator // scaled.denominator)
    r = introot(num, k)
    if r**k < num:
        r += 1
    return Fraction(r, _ROOT_SCALE)


def fujiwara_root_bound(F: IntPolynomial) -> Fraction:
    """Exact rational upper bound 2*max_i |c_{n-i}/c_n|^(1/i) (last term
    halved), at most 2^-16 above the true Fujiwara bound."""
    n = F.degree
    if n < 1:
        raise ValueError("root bound requires degree >= 1")
    lc = F.lc
    best = Fraction(0)
    for i in range(n):
        c = F[i]
        if c == 0:
            continue
        val = Fraction(abs(c), abs(lc))
        if i == 0:
            val /= 2
        term = _ceil_root_scaled(val, n - i)
        best = max(best, term)
    return 2 * best


def root_bound_box(F: IntPolynomial) -> tuple[Fraction, Fraction]:
    """(Fujiwara root bound, implied discriminant bound n^n (2Y')^(n(n-1)))
    for monic F."""
    if abs(F.lc) != 1:
        raise NonMonic("root_bound_box requires monic F")
    n = F.degree
    y = fujiwara_root_bound(F)
    disc_bound = Fraction(n) ** n * (2 * y) ** (n * (n - 1))
    return y, disc_bound


def box_disc_bound(curve: HyperellipticCurve, shape: FamilyShape, Y) -> Fraction:
    """Discriminant bound k*Y^(n(n-1)) over the whole box: coefficient-wise
    triangle-inequality bounds on F feed the Fujiwara bound."""
    box = CoefficientBox.build(shape, Y)
    a_bound = [1] * (shape.d_g + 1)
    b_bound = [1] * (shape.d_h + 1) if shape.b_len or shape.monic_h else []
    for side, j, b in box.bounds:
        if side == "a":
            a_bound[j] = b
        else:
            b_bound[j] = b
    n = shape.n
    f = curve.f
    F_bound = [0] * (n + 1)
    for i, ai in enumerate(a_bound):
        for j, aj in enumerate(a_bound):
            F_bound[i + j] += ai * aj
    for w, cw in enumerate(f.coeffs):
        for i, bi in enumerate(b_bound):
            for j, bj in enumerate(b_bound):
                F_bound[w + i + j] += abs(cw) * bi * bj
    lead = max(1, F_bound[n])
    best = Fraction(0)
    for i in range(n):
        if F_bound[i] == 0:
            continue
        val = Fraction(F_bound[i], lead)
        if i == 0:
            val /= 2
        best = max(best, _ceil_root_scaled(val, n - i))
    y = 2 * best
    return Fraction(n) ** n * (2 * y) ** (n * (n - 1))


# -- exponent calculus ----------------------------------------------------------


@dataclass(frozen=True)
class ExponentReport:
    g: int
    d: int
    n: int
    box_exponent: Fraction
    c_n: Fraction
    c_n_improved: Fraction
    t_exponent: Fraction
    improvement_threshold: int | None = None

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "d": self.d,
            "n": self.n,
            "box_exponent": str(self.box_exponent),
            "c_n": str(self.c_n),
            "c_n_improved": str(self.c_n_improved),
            "t_exponent": str(self.t_exponent),
            "improvement_threshold": (
                self.improvement_threshold if self.improvement_threshold is not None else "NOT_FOUND"
            ),
        }


def exponents(g: int, d: int, n: int, threshold: int | None = None) -> ExponentReport:
    """All growth exponents, exact. Validates the (g, d, n) hypotheses."""
    if g < 1:
        raise HypothesisViolated(f"genus must be >= 1 (got g={g})")
    if d not in (2 * g + 1, 2 * g + 2):
        raise HypothesisViolated(f"degree d={d} inconsistent with genus g={g} (need 2g+1 or 2g+2)")
    if d % 2 == 1:
        if n < d:
            raise HypothesisViolated(f"odd-degree case requires n >= d (got n={n})")
        c = Fraction(n * n + (1 - 2 * g) * n + 2 * g * g, 4)
        c_n = Fraction(1, 4) - Fraction(g * n * n - (g * g - 2 * g - 3) * n - 2 * g * g, 2 * n * n * (n - 1))
    else:
        if n % 2 == 1:
            raise HypothesisViolated(f"even-degree case requires even n (got n={n})")
        if n < d + 2:
            raise HypothesisViolated(f"even-degree case requires n >= d+2 (got n={n})")
        c = Fraction(n * n - 2 * g * n + 2 * g * g + 2 * g, 4)
        c_n = Fraction(1, 4) - Fraction(
            (g + 1) * n * n - (g * g - g - 4) * n - (2 * g * g + 2 * g), 2 * n * n * (n - 1)
        )
    # Large-n improvement: once small-discriminant fields contribute
    # negligibly only the multiplicity bound Y^(n/2) is paid, the count
    # is >> Y^(c - n/2), and the X-exponent is (c - n/2)/(n(n-1)).
    c_imp = (c - Fraction(n, 2)) / (n * (n - 1))
    t_exp = 4 * (c - n) / n
    return ExponentReport(
        g=g, d=d, n=n, box_exponent=c, c_n=c_n, c_n_improved=c_imp, t_exponent=t_exp,
        improvement_threshold=threshold,
    )


def c_n_positive(g: int, d: int, n: int) -> bool:
    """Sign of c_n by cross-multiplied integers (fast sweep form)."""
    if d % 2 == 1:
        num = g * n * n - (g * g - 2 * g - 3) * n - 2 * g * g
    else:
        num = (g + 1) * n * n - (g * g - g - 4) * n - (2 * g * g + 2 * g)
    return 2 * num < n * n * (n - 1)


def ev_threshold_search(g: int, window: int = 100_000, r_max: int = 10) -> int:
    """Least N with admissible Ellenberg-Venkatesh pairs for every n >= N.

    A pair (r, m) is admissible at n when C(r+m, r) > n/2 and
    (4m/(n-2)) C(r+4m, r) < alpha(n, g) = n/4 - (1+2g)/4 + g^2/(2n).
    For fixed r the bound is increasing in m, so only the minimal m with
    C(r+m, r) > n/2 matters; m is capped at 4*sqrt(n) per the search
    spec. Comparisons are cross-multiplied integers (exact).
    """
    if g < 1:
        raise HypothesisViolated("genus must be >= 1")
    m_min = {r: 1 for r in range(1, r_max + 1)}
    binoms = {r: {} for r in range(1, r_max + 1)}

    def binom(r, m):
        out = binoms[r].get(m)
        if out is None:
            out = math.comb(r + m, r)
            binoms[r][m] = out
        return out

    last_bad = None
    for n in range(3, window + 1):
        rhs = (n * n - (1 + 2 * g) * n + 2 * g * g) * (n - 2)
        m_cap = introot(16 * n, 2)  # floor(4*sqrt(n))
        ok = False
        if rhs > 0:
            for r in range(1, r_max + 1):
                m = m_min[r]
                while 2 * math.comb(r + m, r) <= n:
                    m += 1
                m_min[r] = m
                if m > m_cap:
                    continue
                if 16 * m * n * binom(r, 4 * m) < rhs:
                    ok = True
                    break
        if not ok:
            last_bad = n
    if last_bad is None:
        return 3
    if last_bad >= window:
        raise SearchWindowExceeded(f"no admissible pair at the window edge n={window}")
    _check_tail(g, window)
    return last_bad + 1


def _check_tail(g: int, window: int) -> None:
    """Past the window, the naive pair (r=2, m=ceil(sqrt n)-1) must work,
    with a widening margin: checked exactly at geometric sample points."""
    prev_gap = None
    for j in range(9):
        n = window * 2**j
        m = introot(n - 1, 2) + 1 - 1  # ceil(sqrt(n)) - 1 for non-square n
        if (m + 1) * (m + 2) <= n:
            m += 1
        if (m + 1) * (m + 2) <= n:
            raise SearchWindowExceeded(f"naive EV requirement fails at n={n}")
        lhs = 16 * m * n * math.comb(2 + 4 * m, 2)
        rhs = (n * n - (1 + 2 * g) * n + 2 * g * g) * (n - 2)
        gap = rhs - lhs
        if gap <= 0:
            raise SearchWindowExceeded(f"naive EV bound not yet dominant at n={n}")
        if prev_gap is not None and gap <= prev_gap:
            raise SearchWindowExceeded(f"EV gap not increasing at n={n}")
        prev_gap = gap


# -- the full census -----------------------------------------------------------


@dataclass
class CensusResult:
    curve: HyperellipticCurve
    shape: FamilyShape
    Y: Fraction
    records: list[CensusRecord]
    summary: dict
    csv_lines: list[str]


def _compatible_pairs(keys: list[tuple]):
    """Every pair i < j of fingerprint entries that agree at each prime both
    sampled (FieldFingerprint.compatible, for one degree), from a bitset
    index: bit i of `allowed[(p, t)]` is set when key i has type t at p or
    did not sample p, and the candidates of key i are the AND of `allowed`
    over its own entries."""
    everyone = (1 << len(keys)) - 1
    having: dict[tuple, int] = {}
    for i, entries in enumerate(keys):
        bit = 1 << i
        for entry in entries:
            having[entry] = having.get(entry, 0) | bit
    sampled: dict[int, int] = {}
    for (p, _), bits in having.items():
        sampled[p] = sampled.get(p, 0) | bits
    allowed = {entry: bits | (everyone ^ sampled[entry[0]]) for entry, bits in having.items()}
    for i, entries in enumerate(keys):
        candidates = everyone
        for entry in entries:
            candidates &= allowed[entry]
        candidates >>= i + 1
        while candidates:
            low = candidates & -candidates
            yield i, i + low.bit_length()
            candidates ^= low


def _class_groups(records: list[CensusRecord]):
    """Group irreducible records into field classes via fingerprints,
    merging compatible keys and exact-confirming collisions below the cap."""
    keyed: dict[tuple, list[CensusRecord]] = {}
    for r in records:
        if r.fingerprint is None:
            continue
        keyed.setdefault(r.fingerprint.entries, []).append(r)
    keys = list(keyed)
    parent = list(range(len(keys)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in _compatible_pairs(keys):
        parent[find(i)] = find(j)
    merged: dict[int, list[CensusRecord]] = {}
    for i, k in enumerate(keys):
        merged.setdefault(find(i), []).extend(keyed[k])
    classes = [sorted(v, key=lambda r: r.F.coeffs) for v in merged.values()]
    classes.sort(key=lambda g: g[0].F.coeffs)
    unconfirmed = 0
    n = records[0].F.degree if records else 0
    for group in classes:
        distinct = sorted({r.F.coeffs for r in group})
        if len(distinct) <= 1:
            continue
        if n > ISO_CAP:
            unconfirmed += 1
            continue
        base = IntPolynomial(distinct[0])
        for other in distinct[1:]:
            if not isomorphic_exact(base, IntPolynomial(other)):
                unconfirmed += 1  # fingerprint collision of non-isomorphic fields
                break
    return classes, unconfirmed


def run_census(curve: HyperellipticCurve, n: int, Y, cfg: CensusConfig = CensusConfig()) -> CensusResult:
    shape = FamilyShape.census_shape(curve.d, n)
    Y = Fraction(Y)
    box = _capped_box(shape, Y, cfg)
    workers = cfg.workers
    env_threads = os.environ.get("HYPERFIELD_THREADS")
    if env_threads:
        try:
            workers = max(1, min(workers, int(env_threads)))
        except ValueError:
            raise PolyParseError(f"HYPERFIELD_THREADS must be an integer, got {env_threads!r}") from None
    records = list(_classify_box(curve, box, cfg, workers))

    groups, max_mult = dedupe_gh(records)
    irreducible = [r for r in records if r.status in (IRREDUCIBLE_UNCERTIFIED, SN_CERTIFIED)]
    # One representative per distinct F for class counting.
    seen_F: dict[tuple[int, ...], CensusRecord] = {}
    for r in irreducible:
        seen_F.setdefault(r.F.coeffs, r)
    classes, unconfirmed = _class_groups(list(seen_F.values()))

    class_of: dict[tuple[int, ...], int] = {}
    for cid, group in enumerate(classes):
        for r in group:
            class_of[r.F.coeffs] = cid
    records = [
        replace(r, class_id=class_of.get(r.F.coeffs)) if r.fingerprint is not None else r
        for r in records
    ]

    counts = {
        "reducible": sum(r.status == REDUCIBLE for r in records),
        "irreducible": sum(r.status == IRREDUCIBLE_UNCERTIFIED for r in records),
        "sn_certified": sum(r.status == SN_CERTIFIED for r in records),
    }
    pointed = [r for r in records if not r.no_point]
    h_zero = len(records) - len(pointed)
    red_all = counts["reducible"] / len(records) if records else 0.0
    red_pointed = (
        sum(r.status == REDUCIBLE for r in pointed) / len(pointed) if pointed else 0.0
    )

    # Per-class multiplicity against max(Y^n |disc|^(-1/2), Y^(n/2)); the
    # implied constant is unknown, so the ratio is reported, not asserted.
    mk_ratio = 0.0
    class_min_disc = []
    for group in classes:
        mult = sum(len(groups[key]) for key in {r.F.coeffs for r in group})
        dmin = min(abs(r.disc_F) for r in group)
        class_min_disc.append((dmin, mult))
        bound = max(float(Y) ** n * dmin ** -0.5 if dmin else float("inf"), float(Y) ** (n / 2))
        mk_ratio = max(mk_ratio, mult / bound)

    slope = _count_disc_slope(class_min_disc)
    hist: dict[int, int] = {}
    for r in records:
        b = abs(r.disc_F).bit_length()
        hist[b] = hist.get(b, 0) + 1

    report = exponents(curve.genus, curve.d, n)
    summary = {
        "counts": counts,
        "classes": len(classes),
        "max_multiplicity": max_mult,
        "exponent_report": report.to_json(),
        "diagnostics": {
            "box_cardinality": box.cardinality,
            "h_zero_members": h_zero,
            "reducible_proportion_all": red_all,
            "reducible_proportion_pointed": red_pointed,
            "log_cardinality_ratio": box.log_ratio(),
            "box_exponent": str(report.box_exponent),
            "mk_ratio_max": mk_ratio,
            "count_disc_slope": slope,
            "disc_histogram": {str(k): hist[k] for k in sorted(hist)},
            "unconfirmed_classes": unconfirmed,
        },
    }
    csv_lines = [_csv_line(r) for r in records]
    return CensusResult(curve=curve, shape=shape, Y=Y, records=records, summary=summary, csv_lines=csv_lines)


def _count_disc_slope(class_min_disc) -> float:
    pts = sorted((d, m) for d, m in class_min_disc if d > 1)
    if len(pts) < 3:
        return float("nan")
    xs = [math.log(d) for d, _ in pts]
    ys = [math.log(i + 1) for i in range(len(pts))]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return float("nan")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


def _csv_line(r: CensusRecord) -> str:
    spec_a = ",".join(str(c) for c in r.spec.a)
    spec_b = ",".join(str(c) for c in r.spec.b)
    fp = r.fingerprint.hash_hex if r.fingerprint is not None else ""
    cid = str(r.class_id) if r.class_id is not None else ""
    return ";".join([spec_a, spec_b, format_poly(r.F), str(r.disc_F), r.status, fp, cid])


CSV_HEADER = "spec_a;spec_b;F_coeffs;disc_F;status;fingerprint_hash;class_id"
