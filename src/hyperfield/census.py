"""Census of specialization boxes: enumeration, certification, counting.

The box of height Y over a census shape bounds each free coefficient by
an exact floor of a rational power of Y (half-integer exponents for the
non-monic side of the even-n family). Enumeration is a deterministic
odometer, most-significant coefficient first (a descending, then b),
each coordinate swept from -bound to +bound.

Each member of a box, a record, is kept only as its specialization and
the coefficient tuple of F (family.family_coeffs, plain-integer
products) until it becomes its CSV row: spec, F, Disc(F), a
certification status (REDUCIBLE, IRREDUCIBLE_UNCERTIFIED, or
SN_CERTIFIED), fingerprint hash and field class. All but the spec and
the class depend on F alone, and F = g^2 - f h^2 does not change under
g -> -g or h -> -h, so many records repeat an F. Each distinct F is
classified once, into an immutable entry (status, Disc(F), fingerprint
and its hash) that all records with that F share, in every box of a
census. Only an F that is classified, or a mirror copy (below), is made
an IntPolynomial. On an even curve (f(-x) = f(x)), x -> -x maps the box
onto itself and F to F(-x), which has the same classification: one F per mirror pair is classified, and the
other gets that entry with its own F. A sweep reuses the entries of its
smaller boxes. What belongs to one box, the multiplicity of each F and
its field class, is counted by run_census for that box and kept out of
the entries. Irreducibility is decided by (in order) Disc(F) = 0,
Musser's degree-set intersection over the splitting types at the first
IRREDUCIBILITY_PRIMES good primes, then factor_over_q below the degree
cap. S_n certification runs the recognition rules on Frobenius cycle
types at the first fingerprint_primes good primes (not dividing
lc(F) * Disc(F)), read from factor's prime table; they double as the
field fingerprint.

Field classes merge records whose fingerprints agree at every shared
prime. The compatible pairs come from an index of Python-int bitsets, one
per (prime, splitting type) and one per prime, rather than from a
comparison of every pair, so there is no key count above which merging
stops. Each merge is checked by isomorphic_exact. At any degree it proves
F and F(-x), or a rational multiple of either, isomorphic outright; up to
degree ISO_CAP it runs Trager's resultant R_t, searched for a degree-n
factor by the same factor.lift_and_recombine that factor_over_q uses. A
merge it does not prove is counted in unconfirmed_classes.

Members with h = 0 (possible only for the even-n shapes, where h has no
forced monic term) are enumerated for the exact-cardinality invariant
and counted apart (h_zero_members): F = g^2 carries no point of the
curve, and the reducible proportion is reported both with and without
them.

Field discriminants are never computed (no maximal-order machinery in
scope): the census records the polynomial discriminant Disc(F), an
upper-bound proxy since Disc(F) = [O_K : Z[alpha]]^2 * Disc(K). The
proxy is often wrong: at n=4, Y=4, Disc(K) != Disc(F) for 277 of the 526
distinct irreducible F that sympy's round_two could handle. So the
counting diagnostics (disc_histogram, mk_ratio_max, count_disc_slope)
are measured on the Disc(F) axis, not on the paper's Disc(K) axis.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import add, mul
from typing import NamedTuple

from . import _kernels as kernels
from .errors import (
    BoxTooLarge,
    DegreeCapExceeded,
    HypothesisViolated,
    NonMonic,
    NotSquarefree,
    SearchExhausted,
    SearchWindowExceeded,
)
from .factor import (
    DEFAULT_DEGREE_CAP,
    factor_over_q,
    lift_and_recombine,
    musser_degrees,
    primes_not_dividing,
)
from .family import (
    EVEN_D_EVEN_N,
    ODD_D_EVEN_N,
    ODD_D_ODD_N,
    FamilyShape,
    HyperellipticCurve,
    Specialization,
    build_family_member,  # noqa: F401
    family_coeffs,
)
from .intpoly import IntPolynomial, discriminant, format_poly, monicize, scale_x
# Nothing here calls newton_polygon or build_family_member (records are
# built by family_coeffs). The names stay for perfbench/trace_spans.WRAPPED
# and the tests.
from .newton import newton_polygon  # noqa: F401
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


class CoefficientBox(NamedTuple):
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
        """Odometer over the box, most-significant coefficient first. The
        bounds list every a_j, then every b_j, each by descending j (see
        box_exponents), so a member's values split at a_len and each side
        reversed is its ascending coefficient tuple."""
        a_len = self.shape.a_len
        for values in itertools.product(*(range(-b, b + 1) for _, _, b in self.bounds)):
            yield Specialization(values[:a_len][::-1], values[a_len:][::-1])

    def log_ratio(self) -> float:
        """log(cardinality) / log(Y): compare against the count exponent."""
        if self.Y == 1:
            return float("nan")
        return math.log(self.cardinality) / math.log(self.Y)


# -- field fingerprints --------------------------------------------------------


class FieldFingerprint(NamedTuple):
    degree: int
    entries: tuple[tuple[int, tuple[int, ...]], ...]  # (prime, splitting type)

    @property
    def hash_hex(self) -> str:
        """The first 12 hex digits of sha1(repr((degree, entries))); the
        text is assembled from each entry's memoised repr."""
        entries = ", ".join(map(_entry_repr, self.entries))
        if len(self.entries) == 1:
            entries += ","
        return hashlib.sha1(f"({self.degree}, ({entries}))".encode()).hexdigest()[:12]


@functools.lru_cache(maxsize=4096)
def _entry_repr(entry: tuple[int, tuple[int, ...]]) -> str:
    """repr of one (prime, splitting type) entry. Memoised like
    perms._evidence_head: a census repeats a few types at each prime."""
    return repr(entry)


# Each (prime, splitting type) entry made in this process, kept once, so that
# the fingerprints of all the F of a census share their entries. It holds at
# most (primes sampled) x (partitions of n) entries for each degree n.
_ENTRIES: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}


def _splitting_entries(F: IntPolynomial, primes: list[int]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(p, splitting type of F mod p) for each good prime p, from one kernel
    call; each entry is the one kept in _ENTRIES."""
    types = kernels.splitting_types(F.coeffs, primes)
    return tuple(_ENTRIES.setdefault(e, e) for e in zip(primes, map(tuple, types)))


# -- census records and classification ----------------------------------------


IRREDUCIBILITY_PRIMES = 5  # fingerprint primes whose splitting types screen for irreducibility
ISO_CAP = 6  # largest degree at which field classes are confirmed by isomorphic_exact


class CensusConfig(NamedTuple):
    fingerprint_primes: int = 50
    factor_cap: int = DEFAULT_DEGREE_CAP
    box_cap: int = 100_000_000
    workers: int = 1


class FieldEntry(NamedTuple):
    """The classification of one distinct F: Disc F, status, fingerprint and
    its hash. It depends on F alone and is made once per F; every record
    with this F, in every box of a census, shares it."""

    F: IntPolynomial
    disc_F: int
    status: str
    fingerprint: FieldFingerprint | None = None
    hash_hex: str = ""

    # Classification reads F alone. An h = 0 member has F = g^2, which has
    # Disc F = 0 and is REDUCIBLE like any other square; run_census counts
    # those members from their specs. The constant stays for
    # perfbench/trace_spans, which reads no_point from what classify_record
    # returns.
    no_point = False


def classify_record(F: IntPolynomial, cfg: CensusConfig) -> FieldEntry:
    """Classify one distinct F: the census calls this once per F, and every
    record with that F shares the entry it returns."""
    n = F.degree
    disc_F = discriminant(F)
    if disc_F == 0:
        return FieldEntry(F, 0, REDUCIBLE)
    # The census needs Disc F for its CSV column anyway, so the good primes
    # come from it, not from good_splitting_types, which would also
    # send the primes dividing Disc F to the kernel (census-cubic-n4 made
    # 621 kernel calls that way, against 405) and ran slower.
    good = primes_not_dividing(F.lc * disc_F, cfg.fingerprint_primes)
    # Two kernel calls: the screening primes, then (for irreducible F only)
    # the rest of the fingerprint, which a reducible F never needs.
    entries = _splitting_entries(F, good[:IRREDUCIBILITY_PRIMES])

    if musser_degrees((t for _, t in entries), range(1, n // 2 + 1)):
        if n > cfg.factor_cap:
            raise DegreeCapExceeded(
                f"cannot decide irreducibility at degree {n} above factor cap {cfg.factor_cap}"
            )
        factors = factor_over_q(F, cap=cfg.factor_cap)
        if sum(1 for f in factors if f.degree > 0) > 1:
            return FieldEntry(F, disc_F, REDUCIBLE)

    entries += _splitting_entries(F, good[IRREDUCIBILITY_PRIMES:])
    cert = recognize_sn(n, [(t, "") for _, t in entries])
    status = SN_CERTIFIED if cert.conclusion == SN else IRREDUCIBLE_UNCERTIFIED
    fp = FieldFingerprint(n, entries)
    return FieldEntry(F, disc_F, status, fingerprint=fp, hash_hex=fp.hash_hex)


def _capped_box(shape: FamilyShape, Y: Fraction, cfg: CensusConfig) -> CoefficientBox:
    """The box of height Y, or BoxTooLarge if it has more than cfg.box_cap
    members. For Y >= 1 every bound is at least 1, so k free coefficients
    give at least 3^k > 2^k members: a box with k >= box_cap.bit_length()
    is refused before its bounds are built."""
    # Numbers above 64 bits are printed by their size: str() raises on an
    # int of more than sys.get_int_max_str_digits() digits.
    k = shape.a_len + shape.b_len
    if Y >= 1 and k >= cfg.box_cap.bit_length():
        bits = k if k.bit_length() <= 64 else f"2^{k.bit_length() - 1}"
        raise BoxTooLarge(f"box cardinality of more than {bits} bits exceeds cap {cfg.box_cap}")
    box = CoefficientBox.build(shape, Y)
    size = box.cardinality
    if size > cfg.box_cap:
        text = size if size.bit_length() <= 64 else f"of {size.bit_length()} bits"
        raise BoxTooLarge(f"box cardinality {text} exceeds cap {cfg.box_cap}")
    return box


def _box_members(
    curve: HyperellipticCurve,
    box: CoefficientBox,
    cfg: CensusConfig,
    classified: dict[tuple[int, ...], FieldEntry],
) -> list[tuple[Specialization, tuple[int, ...]]]:
    """(spec, coefficients of F) for every member of the box, in odometer
    order, after adding to `classified` (coefficients of F -> entry, kept
    across the boxes of one census) an entry for each F of the box it
    lacks. Those F are classified in order of first appearance, in this
    process or, with cfg.workers > 1, in a pool of that many processes.
    An IntPolynomial is made only for them and for mirror copies.

    On an even curve (f(-x) = f(x)) the mirror F(-x) of a member is also a
    member, and one F per mirror pair is classified: the other gets its
    entry with F replaced. That is exact. n is even, so F(-x) has the
    leading coefficient and discriminant of F, hence the same good primes;
    x -> -x is an automorphism of F_p[x], so the splitting types agree at
    every prime; and F(-x) is reducible exactly when F is."""
    shape, f = box.shape, curve.f.coeffs
    members = [(s, family_coeffs(f, shape, s)) for s in box.specializations()]
    even = not any(f[1::2])
    pending: dict[tuple[int, ...], IntPolynomial] = {}
    for _, c in members:
        if c in classified or c in pending:
            continue
        F = IntPolynomial(c)
        if even:
            mirror = scale_x(F, -1).coeffs
            if mirror in classified or mirror in pending:
                continue
        pending[c] = F
    Fs = list(pending.values())
    if cfg.workers > 1:
        entries = _classify_in_pool(Fs, cfg)
    else:
        entries = [classify_record(F, cfg) for F in Fs]
    classified.update(zip(pending, entries))
    if even:
        for _, c in members:
            if c not in classified:
                F = IntPolynomial(c)
                classified[c] = classified[scale_x(F, -1).coeffs]._replace(F=F)
    return members


def _classify_in_pool(Fs: list[IntPolynomial], cfg: CensusConfig) -> list[FieldEntry]:
    """classify_record on each F, in order, by a pool of cfg.workers
    processes. The entries come back unpickled, chunk by chunk; each
    (prime, splitting type) of their fingerprints is replaced by the one
    kept in _ENTRIES, as classify_record does in this process."""
    from concurrent.futures import ProcessPoolExecutor

    size = max(64, len(Fs) // (cfg.workers * 8) + 1)
    chunks = (Fs[i:i + size] for i in range(0, len(Fs), size))
    with ProcessPoolExecutor(max_workers=cfg.workers) as ex:
        entries = [e for part in ex.map(_classify_chunk, ((c, cfg) for c in chunks)) for e in part]
    return [_interned(e) for e in entries]


def _interned(e: FieldEntry) -> FieldEntry:
    if e.fingerprint is None:
        return e
    shared = tuple(_ENTRIES.setdefault(x, x) for x in e.fingerprint.entries)
    return e._replace(fingerprint=e.fingerprint._replace(entries=shared))


def _classify_chunk(args):
    Fs, cfg = args
    return [classify_record(F, cfg) for F in Fs]


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
    """Q[x]/(F1) isomorphic to Q[x]/(F2)? First the cheap proofs, at any
    degree: F2 is a rational multiple of F1 or of F1(-x) (primitive parts
    have a positive leading coefficient, so the sign (-1)^n of F1(-x) needs
    no case). Otherwise, up to degree `cap`, a Trager-style resultant test.

    R_t(x) = Res_y(F1(y), F2(x + t*y)) factors over Q along Galois orbits
    of beta_j - t*alpha_i; the fields are isomorphic iff R_t has an
    irreducible factor of degree exactly n (for squarefree R_t). Each
    root generates Q(alpha_i, beta_j), so no factor has degree below n
    and the factor search looks at degree n alone. A shift t whose R_t
    the search's good-prime walk proves not squarefree is skipped.
    """
    n = F1.degree
    if n != F2.degree:
        return False
    if n == 1 or F2.primitive().coeffs in (F1.primitive().coeffs, scale_x(F1, -1).primitive().coeffs):
        return True
    if n > cap:
        raise DegreeCapExceeded(f"exact isomorphism capped at degree {cap}")
    for t in range(1, 40):
        R = _resultant_in_x(F1, F2, t).primitive()
        if R.degree != n * n:
            continue
        try:
            return len(lift_and_recombine(R, (n,))) > 1  # a degree-n factor besides the cofactor
        except NotSquarefree:  # the good-prime walk proved Disc(R) = 0
            continue
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
    y = fujiwara_root_bound(F)
    return y, _disc_bound(F.degree, y)


def _disc_bound(n: int, y: Fraction) -> Fraction:
    """n^n (2y)^(n(n-1)): the bound on |Disc| of a monic polynomial of
    degree n whose roots all lie in |z| <= y."""
    return Fraction(n) ** n * (2 * y) ** (n * (n - 1))


def box_disc_bound(curve: HyperellipticCurve, shape: FamilyShape, Y) -> Fraction:
    """Discriminant bound k*Y^(n(n-1)) over the whole box: coefficient-wise
    triangle-inequality bounds on F feed the Fujiwara bound, and
    Disc F = lc(F)^(2n-2) prod (alpha_i - alpha_j)^2 adds |lc F|^(2n-2)."""
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
    # In every census shape only one of g^2, f*h^2 reaches degree n, and its
    # g or h is monic: lc F is fixed, F_bound[n] = |lc F| >= 1 and the degree
    # stays n.
    return _disc_bound(n, fujiwara_root_bound(IntPolynomial(F_bound))) * F_bound[n] ** (2 * n - 2)


# -- exponent calculus ----------------------------------------------------------


class ExponentReport(NamedTuple):
    g: int
    d: int
    n: int
    box_exponent: Fraction
    c_n: Fraction
    c_n_improved: Fraction
    t_exponent: Fraction

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "d": self.d,
            "n": self.n,
            "box_exponent": str(self.box_exponent),
            "c_n": str(self.c_n),
            "c_n_improved": str(self.c_n_improved),
            "t_exponent": str(self.t_exponent),
            # Not searched here: `exponents --threshold` runs ev_threshold_search.
            "improvement_threshold": "NOT_FOUND",
        }


def exponents(g: int, d: int, n: int) -> ExponentReport:
    """All growth exponents, exact. Validates the (g, d, n) hypotheses."""
    if g < 1:
        raise HypothesisViolated(f"genus must be >= 1 (got g={g})")
    if d not in (2 * g + 1, 2 * g + 2):
        raise HypothesisViolated(f"degree d={d} inconsistent with genus g={g} (need 2g+1 or 2g+2)")
    if n >= 10**1000:  # the exponents, with 3x its digits, would pass str()'s 4300-digit limit
        raise DegreeCapExceeded("exponents need n below 10^1000")
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
    return ExponentReport(g=g, d=d, n=n, box_exponent=c, c_n=c_n, c_n_improved=c_imp, t_exponent=t_exp)


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
                if 16 * m * n * math.comb(r + 4 * m, r) < rhs:
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
        m = math.isqrt(n - 1)  # ceil(sqrt(n)) - 1
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


class CensusResult(NamedTuple):
    curve: HyperellipticCurve
    shape: FamilyShape
    Y: Fraction
    summary: dict
    csv_lines: list[str]


def _compatible_pairs(keys: list[tuple]):
    """Every pair i < j of fingerprint entries that agree at each prime both
    sampled (fingerprints of one degree), from a bitset
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


def _class_groups(entries: list[FieldEntry]):
    """Group the entries of irreducible F into field classes via fingerprints,
    merging compatible keys; a class of several F that isomorphic_exact does
    not prove (above ISO_CAP, only mirror pairs are proved) is unconfirmed."""
    keyed: dict[tuple, list[FieldEntry]] = {}
    for e in entries:
        if e.fingerprint is None:
            continue
        keyed.setdefault(e.fingerprint.entries, []).append(e)
    keys = list(keyed)
    parent = list(range(len(keys)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in _compatible_pairs(keys):
        parent[find(i)] = find(j)
    merged: dict[int, list[FieldEntry]] = {}
    for i, k in enumerate(keys):
        merged.setdefault(find(i), []).extend(keyed[k])
    classes = [sorted(v, key=lambda e: e.F.coeffs) for v in merged.values()]
    classes.sort(key=lambda g: g[0].F.coeffs)
    unconfirmed = 0
    for group in classes:
        distinct = sorted({e.F.coeffs for e in group})
        base = IntPolynomial(distinct[0])
        for other in distinct[1:]:
            try:
                proved = isomorphic_exact(base, IntPolynomial(other))
            except DegreeCapExceeded:  # no cheap proof, and Trager's test is capped
                proved = False
            if not proved:
                unconfirmed += 1  # a fingerprint collision of fields not proved isomorphic
                break
    return classes, unconfirmed


def run_census(
    curve: HyperellipticCurve,
    n: int,
    Y,
    cfg: CensusConfig = CensusConfig(),
    classified: dict[tuple[int, ...], FieldEntry] | None = None,
) -> CensusResult:
    """The census of one box. `classified` maps F.coeffs to the entries of
    earlier runs with the same curve, n and cfg (a sweep's smaller boxes):
    their F are not classified again, and this run adds its own entries.
    cfg.workers is the number of processes that classify; the CLI caps it
    by HYPERFIELD_THREADS, and nothing here reads the environment."""
    shape = FamilyShape.census_shape(curve.d, n)
    Y = Fraction(Y)
    box = _capped_box(shape, Y, cfg)
    if classified is None:
        classified = {}
    members = _box_members(curve, box, cfg, classified)
    multiplicity = Counter(c for _, c in members)
    entries = [classified[k] for k in multiplicity]

    classes, unconfirmed = _class_groups(entries)
    class_of = {e.F.coeffs: cid for cid, group in enumerate(classes) for e in group}

    counts = {
        key: sum(multiplicity[e.F.coeffs] for e in entries if e.status == status)
        for key, status in (
            ("reducible", REDUCIBLE), ("irreducible", IRREDUCIBLE_UNCERTIFIED), ("sn_certified", SN_CERTIFIED)
        )
    }
    # h = 0 needs a shape whose h has no monic term and every b_j = 0. Such a
    # member has F = g^2, so Disc F = 0 and it is REDUCIBLE: the pointed
    # members hold every other reducible record.
    h_zero = 0 if shape.monic_h else sum(1 for s, _ in members if not any(s.b))
    pointed = len(members) - h_zero
    red_all = counts["reducible"] / len(members)
    red_pointed = (counts["reducible"] - h_zero) / pointed

    # Per-class multiplicity against max(Y^n |disc|^(-1/2), Y^(n/2)); the
    # implied constant is unknown, so the ratio is reported, not asserted.
    mk_ratio = 0.0
    class_min_disc = []
    for group in classes:
        mult = sum(multiplicity[e.F.coeffs] for e in group)
        dmin = min(abs(e.disc_F) for e in group)
        class_min_disc.append((dmin, mult))
        bound = max(float(Y) ** n * dmin ** -0.5 if dmin else float("inf"), float(Y) ** (n / 2))
        mk_ratio = max(mk_ratio, mult / bound)

    slope = _count_disc_slope(class_min_disc)
    hist: dict[int, int] = {}
    for e in entries:
        b = abs(e.disc_F).bit_length()
        hist[b] = hist.get(b, 0) + multiplicity[e.F.coeffs]

    report = exponents(curve.genus, curve.d, n)
    summary = {
        "counts": counts,
        "classes": len(classes),
        "max_multiplicity": max(multiplicity.values(), default=0),
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
    # The F columns of a CSV line are the same for every record with that F.
    tails = {e.F.coeffs: _csv_tail(e, class_of.get(e.F.coeffs)) for e in entries}
    csv_lines = [f"{_csv_spec(s)};{tails[c]}" for s, c in members]
    return CensusResult(curve=curve, shape=shape, Y=Y, summary=summary, csv_lines=csv_lines)


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


def _csv_spec(s: Specialization) -> str:
    return ",".join(map(str, s.a)) + ";" + ",".join(map(str, s.b))


def _csv_tail(e: FieldEntry, class_id: int | None) -> str:
    cid = str(class_id) if class_id is not None else ""
    return ";".join([format_poly(e.F), str(e.disc_F), e.status, e.hash_hex, cid])


CSV_HEADER = "spec_a;spec_b;F_coeffs;disc_F;status;fingerprint_hash;class_id"
