"""Factorization: degree partitions mod p, Zassenhaus over Q.

factor_mod_p is the validated single-prime Dedekind sampler (partition
of factor degrees mod a good prime = Frobenius cycle type).
good_splitting_types walks the primes good for F (not dividing
lc(F) * Disc(F)) without computing Disc(F): the batched kernel marks
the primes where F is not squarefree, and the walk skips them. It is
also the squarefree decision: once the marked primes pass Mahler's
bound on |Disc(F)|, Disc(F) = 0 and it raises NotSquarefree, which is
where factor_over_q factors the squarefree part F / gcd(F, F') instead
and counts how often each of its factors divides F.
musser_degrees is Musser's degree-set intersection over splitting types
at good primes, for the census screen and lift_and_recombine, the one
Zassenhaus search (factor_over_q and the exact isomorphism test): the
intersection at six good primes, factorization mod the prime with the
fewest factors, one Hensel lift past Mignotte's bound for the largest
target degree, and recombination of subsets by ascending degree.
factor_over_q refuses degrees above its cap (default 12).
prime_factors factors integers: trial division, then Brent's rho.
"""
from __future__ import annotations

import bisect
import itertools
import math
import random

from . import _kernels as kernels
from ._kernels.pure import _ddf_blocks, _divmod_mod, _gcd_mod, _mul_mod, _pow_mod, _power_table, _prep, _reduce, _trim
from .errors import BadPrime, ConstantPolynomial, DegreeCapExceeded, NotSquarefree, TooManyPrimes, ZeroInput
# Nothing here calls discriminant; it stays for perfbench/trace_spans.WRAPPED.
from .intpoly import IntPolynomial, discriminant, poly_gcd  # noqa: F401

DEFAULT_DEGREE_CAP = 12

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# prime_factors: trial division by the primes up to _TRIAL_LIMIT, then
# Brent's rho, which searches cycles of length up to _RHO_STEPS per
# cofactor: 4 * _RHO_STEPS squarings mod the cofactor at most (about 0.4 s
# on a 2-core x86-64 host). It expects about sqrt(q) steps to find a prime
# factor q, so it finds every factor below about 10^10.
_TRIAL_LIMIT = 1000
_RHO_STEPS = 1 << 17


def _brent_rho(n: int, c: int) -> int | None:
    """A factor d > 1 of the odd composite n (d = n when the cycle closes
    without splitting n) by Brent's variant of Pollard's rho on
    x -> x^2 + c (Brent, BIT 20, 1980), or None once the cycle length
    searched passes _RHO_STEPS."""
    y, r, q, g = 2, 1, 1, 1
    x = ys = y
    while g == 1:
        if r > _RHO_STEPS:
            return None
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):  # one gcd per 128 steps
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += 128
        r *= 2
    if g == n:  # the batch overshot: redo its steps one gcd at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def prime_factors(n: int) -> tuple[list[int], int]:
    """(the distinct primes found dividing n != 0, ascending; the part of
    |n| left unfactored). Trial division by the primes up to _TRIAL_LIMIT,
    then Brent's rho on each composite cofactor, whose factors is_prime
    checks. The part left is 1, unless rho finds no factor of some
    composite cofactor within its step cap: then that cofactor is
    returned (its primes all exceed _TRIAL_LIMIT), never guessed at."""
    if n == 0:
        raise ValueError("every prime divides 0")
    n = abs(n)
    found = set()
    for p in primes_from(2):
        if p > _TRIAL_LIMIT or p * p > n:
            break
        if n % p == 0:
            found.add(p)
            while n % p == 0:
                n //= p
    left, work = 1, [n] if n > 1 else []
    while work:
        m = work.pop()
        if is_prime(m):
            found.add(m)
            continue
        # A cycle that closes on m itself is retried with another constant.
        d = next(d for c in itertools.count(1) if (d := _brent_rho(m, c)) != m)
        if d is None:
            left *= m
        else:
            work += [d, m // d]
    return sorted(found), left


def next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


# Every prime up to _PRIMES[-1], ascending; grown on demand by next_prime.
_PRIMES = [2]


def primes_from(start: int):
    """Ascending primes >= start, read from the prime table."""
    i = bisect.bisect_left(_PRIMES, start)
    while True:
        if i == len(_PRIMES):
            _PRIMES.append(next_prime(_PRIMES[-1]))
        if _PRIMES[i] >= start:
            yield _PRIMES[i]
        i += 1


# The most primes one walk may take (certify --primes, census
# fingerprint_primes). The table then reaches the 10,000th prime, 104,729,
# in about 0.2 s; a million primes did not finish in 30 s, so larger
# counts are refused (exit 5) instead.
MAX_PRIME_COUNT = 10_000


def check_prime_count(count: int) -> None:
    """Raise TooManyPrimes if count is above MAX_PRIME_COUNT."""
    if count > MAX_PRIME_COUNT:
        raise TooManyPrimes(f"{count} primes requested; at most {MAX_PRIME_COUNT} are sampled")


def primes_not_dividing(bad: int, count: int, start: int = 2) -> list[int]:
    """The first `count` primes >= start that do not divide `bad` (for
    example lc(F), or lc(F) * Disc(F) where Disc(F) is known anyway)."""
    check_prime_count(count)
    if bad == 0:
        raise ValueError("every prime divides 0; no good primes exist")
    return list(itertools.islice((q for q in primes_from(start) if bad % q), count))


def good_splitting_types(F: IntPolynomial, count: int, start: int = 2) -> list[tuple[int, tuple[int, ...]]]:
    """(q, splitting type of F mod q) at the first `count` primes q >= start
    good for F, in order: the primes of primes_not_dividing(lc(F) *
    Disc(F), count, start), found without Disc(F). The primes not
    dividing lc(F) go to the kernel in batches; it marks with None those
    where F is not squarefree mod q, which are exactly the ones dividing
    Disc(F), and the walk skips them.

    This is the package's squarefree decision where Disc(F) is not
    computed anyway. A marked prime divides Disc(F), and Mahler's bound
    |Disc(F)| <= n^n ||F||_2^(2n-2) holds for n = deg F; so once the
    product of the marked primes passes it, Disc(F) = 0 and the walk
    raises NotSquarefree. Returning proves F squarefree.
    """
    check_prime_count(count)
    if F.degree < 1:
        raise ConstantPolynomial("discriminant requires degree >= 1")
    primes = (q for q in primes_from(start) if F.lc % q)
    found: list[tuple[int, tuple[int, ...]]] = []
    marked = 1
    while len(found) < count:
        batch = list(itertools.islice(primes, count - len(found)))
        for q, t in zip(batch, kernels.splitting_types(F.coeffs, batch)):
            if t is None:
                marked *= q
            else:
                found.append((q, tuple(t)))
        if marked > 1 and marked > F.degree**F.degree * sum(c * c for c in F.coeffs) ** (F.degree - 1):
            raise NotSquarefree("Disc = 0: the polynomial is not squarefree, so no good primes exist")
    return found


def factor_mod_p(p: IntPolynomial, q: int) -> tuple[int, ...]:
    """Degree partition (descending) of the irreducible factors of p mod q.

    When q is good (q prime, q not dividing lc(p) or Disc(p)) this is the
    cycle type of Frobenius at q in Gal(p/Q) by Dedekind's theorem.
    """
    if not is_prime(q):
        raise BadPrime(f"{q} is not prime")
    if p.degree < 1:
        raise ConstantPolynomial("factor_mod_p requires degree >= 1")
    if p.lc % q == 0:
        raise BadPrime(f"{q} divides the leading coefficient")
    try:
        return tuple(kernels.ddf_degrees(p.coeffs, q))
    except ValueError:
        # With q prime and q not dividing lc, the kernel's only refusal is
        # "not squarefree mod q", which happens exactly when q | Disc(p).
        raise BadPrime(f"{q} divides the discriminant") from None


# -- factorization mod p (full, for Zassenhaus) ------------------------------


def _factor_mod_full(coeffs, q: int, rng: random.Random) -> list[list[int]]:
    """Monic irreducible factors of coeffs mod q (squarefree mod q, q odd)."""
    factors: list[list[int]] = []
    # Equal-degree (Cantor-Zassenhaus) splitting of each distinct-degree block.
    for block, d in _ddf_blocks(_prep(coeffs, q), q):
        work = [block]
        while work:
            w = work.pop()
            if len(w) - 1 == d:
                factors.append(w)
                continue
            e = (q**d - 1) // 2
            table = _power_table(w, q)
            while True:
                r = [rng.randrange(q) for _ in range(len(w) - 1)]
                r = _trim(r)
                if not r:
                    continue
                g = _gcd_mod(r, w, q)
                if 0 < len(g) - 1 < len(w) - 1:
                    break
                rp = _pow_mod(r, e, w, q, table)
                rp = list(rp) + [0] * max(0, 1 - len(rp))
                rp[0] = (rp[0] - 1) % q
                g = _gcd_mod(_trim(rp), w, q)
                if 0 < len(g) - 1 < len(w) - 1:
                    break
            work.append(g)
            work.append(_divmod_mod(w, g, q)[0])
    factors.sort(key=lambda v: (len(v), v))
    return factors


# -- Hensel lifting -----------------------------------------------------------


def _add_m(a, b, m, sign=1):
    """a + sign * b mod m, every coefficient reduced, trimmed."""
    return _trim([(x + sign * y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _bezout_mod(g, h, q):
    """s, t with s*g + t*h = 1 mod q, deg s < deg h, deg t < deg g."""
    r0, r1 = list(g), list(h)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        lead = pow(r1[-1], -1, q)
        r1m = [(c * lead) % q for c in r1]
        qq, rr = _divmod_mod(r0, r1m, q)
        qq = [(c * lead) % q for c in qq]
        r0, r1 = r1, _trim(rr)
        s0, s1 = s1, _add_m(s0, _mul_mod(qq, s1, q), q, -1)
        t0, t1 = t1, _add_m(t0, _mul_mod(qq, t1, q), q, -1)
    if len(r0) != 1:
        raise ValueError("factors not coprime mod q")
    inv = pow(r0[-1], -1, q)
    # Extended Euclid already gives deg s < deg h, deg t < deg g.
    s = [(c * inv) % q for c in s0]
    t = [(c * inv) % q for c in t0]
    return s, t


def _hensel_step(f, g, h, s, t, m, cap):
    """One quadratic lift from modulus m to min(m*m, cap).

    Invariants: f = g*h, s*g + t*h = 1 (mod m), h monic,
    deg s < deg h, deg t < deg g. Returns (g, h, s, t, new_modulus).
    """
    m2 = min(m * m, cap)
    fm = _reduce(f, m2)
    e = _add_m(fm, _mul_mod(g, h, m2), m2, -1)
    qq, r = _divmod_mod(_mul_mod(s, e, m2), h, m2)
    g1 = _add_m(g, _add_m(_mul_mod(t, e, m2), _mul_mod(qq, g, m2), m2), m2)
    h1 = _add_m(h, r, m2)
    b = _add_m(_add_m(_mul_mod(s, g1, m2), _mul_mod(t, h1, m2), m2), [1], m2, -1)
    cc, d = _divmod_mod(_mul_mod(s, b, m2), h1, m2)
    s1 = _add_m(s, d, m2, -1)
    t1 = _add_m(t, _add_m(_mul_mod(t, b, m2), _mul_mod(cc, g1, m2), m2), m2, -1)
    return g1, h1, s1, t1, m2


def hensel_lift_factors(f_coeffs: list[int], mod_factors: list[list[int]], q: int, target: int) -> list[list[int]]:
    """Lift monic factors of f mod q to mod q^K = target (f = lc * prod, mod q).

    Peels one factor at a time: lift (rest-with-lc, first) as a pair to
    full precision, recurse on the rest.
    """
    lc = f_coeffs[-1]
    if len(mod_factors) == 1:
        inv = pow(lc % target, -1, target)
        out = _reduce([c * inv for c in f_coeffs], target)
        return [out]
    h = mod_factors[0]
    g = [lc % q]
    for u in mod_factors[1:]:
        g = _mul_mod(g, u, q)
    s, t = _bezout_mod(g, h, q)
    m = q
    while m < target:
        g, h, s, t, m = _hensel_step(f_coeffs, g, h, s, t, m, target)
    rest = hensel_lift_factors(g, mod_factors[1:], q, target)
    return [h] + rest


# -- Zassenhaus: Musser's degree sets, one Hensel lift, recombination --------

_MUSSER_PRIMES = 6
_CANDIDATE_CAP = 200_000


def _center(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _mignotte_modulus(g: IntPolynomial, q: int, degree: int) -> int:
    """The least power of q above 2 * binom(D, D // 2) * ||g||_2 * |lc g|
    for D = `degree`. For a factor h of g of degree at most D, Mignotte's
    bound puts every coefficient of (lc g / lc h) * h within
    binom(D, D // 2) * ||g||_2 of 0, so the centered residues of
    lc(g) * (its lifted factors) mod the returned modulus are exact.
    Factors of higher degree are not rebuilt from residues."""
    norm2 = math.isqrt(sum(c * c for c in g.coeffs)) + 1
    bound = math.comb(degree, degree // 2) * norm2 * abs(g.lc)
    target = q
    while target <= 2 * bound:
        target *= q
    return target


def _degree_subsets(parts: list[int], target: int):
    """Index subsets of `parts` whose degrees sum to `target`."""
    order = sorted(range(len(parts)), key=lambda i: parts[i])

    def rec(i, remaining, chosen):
        if remaining == 0:
            yield tuple(chosen)
            return
        if i >= len(order) or parts[order[i]] > remaining:
            return
        yield from rec(i + 1, remaining, chosen)
        chosen.append(order[i])
        yield from rec(i + 1, remaining - parts[order[i]], chosen)
        chosen.pop()

    yield from rec(0, target, [])


def musser_degrees(types, degrees) -> list[int]:
    """The degrees in `degrees` that are a subset sum of every splitting
    type in `types` (at good primes). The degree of any factor over Q is
    such a sum (Musser), so an empty list proves there is no factor of a
    degree in `degrees`."""
    possible = -1  # bit d: d is a subset sum of every type so far
    for parts in types:
        sums = 1
        for d in parts:
            sums |= sums << d
        possible &= sums
    return [d for d in degrees if possible >> d & 1]


def lift_and_recombine(g: IntPolynomial, degrees) -> list[IntPolynomial]:
    """Factors of g found at the target `degrees` (each <= deg/2), in
    ascending degree, then the cofactor. g is primitive with lc > 0; if
    it is not squarefree, the good-prime walk raises NotSquarefree.

    Target degrees that musser_degrees drops at six odd good primes
    cannot be factor degrees; if none is left nothing is lifted.
    Otherwise the factors mod the prime with the fewest of them are
    Hensel-lifted once, and for each target degree d, ascending, every
    subset of lifted factors of total degree d is tried by exact
    division. A factor found at degree d is irreducible when g has no
    irreducible factor of lower degree outside the search: degrees
    1..deg/2 give the factorization into irreducibles.
    """
    entries = good_splitting_types(g, _MUSSER_PRIMES, 3)
    targets = musser_degrees((t for _, t in entries), degrees)
    if not targets:
        return [g]
    q = min(entries, key=lambda e: len(e[1]))[0]
    # Only factors of degree <= max(targets) are rebuilt from the lift; the
    # cofactor comes from exact division, so the bound is sized to them.
    m = _mignotte_modulus(g, q, max(targets))
    rng = random.Random(hash(g.coeffs) & 0xFFFFFFFF)
    pool = hensel_lift_factors(list(g.coeffs), _factor_mod_full(g.coeffs, q, rng), q, m)

    found: list[IntPolynomial] = []
    cur = g
    tested = 0
    for d in targets:
        while 2 * d <= cur.degree:
            for combo in _degree_subsets([len(v) - 1 for v in pool], d):
                tested += 1
                if tested > _CANDIDATE_CAP:
                    raise DegreeCapExceeded(f"more than {_CANDIDATE_CAP} recombination candidates")
                prod = [cur.lc % m]
                for i in combo:
                    prod = _mul_mod(prod, pool[i], m)
                cand = IntPolynomial([_center(c, m) for c in prod]).primitive()
                if cand.divides(cur):
                    found.append(cand)
                    cur = cur.divmod_exact(cand)[0]
                    pool = [v for i, v in enumerate(pool) if i not in combo]
                    break
            else:
                break
    return found + [cur]


def factor_over_q(p: IntPolynomial, cap: int = DEFAULT_DEGREE_CAP) -> list[IntPolynomial]:
    """Complete factorization over Q into primitive irreducible factors.

    Content (with sign) is returned as a leading degree-0 polynomial when
    it is not 1, so the product of the returned list equals p exactly.
    Repeated factors are repeated in the list. The primitive part goes
    to lift_and_recombine as it is; only where its good-prime walk
    raises NotSquarefree is its squarefree part factored instead, each
    factor repeated as often as it divides the primitive part.
    """
    if p.is_zero():
        raise ZeroInput("cannot factor the zero polynomial")
    if p.degree > cap:
        raise DegreeCapExceeded(f"degree {p.degree} above factorization cap {cap}")
    content = p.content()
    prim = p.primitive()
    factors: list[IntPolynomial] = []
    if prim.degree >= 1:
        try:
            factors = lift_and_recombine(prim, range(1, prim.degree // 2 + 1))
        except NotSquarefree:
            # prim / gcd(prim, prim') is squarefree with the same irreducible
            # factors; the division is exact, both being primitive.
            core = prim.divmod_exact(poly_gcd(prim, prim.derivative()))[0]
            for irr in lift_and_recombine(core, range(1, core.degree // 2 + 1)):
                rest = prim
                while irr.divides(rest):
                    rest = rest.divmod_exact(irr)[0]
                    factors.append(irr)
    factors.sort(key=lambda f: (f.degree, f.coeffs))
    if content != 1:
        factors.insert(0, IntPolynomial((content,)))
    if not factors:
        factors = [IntPolynomial((1,))]
    return factors
