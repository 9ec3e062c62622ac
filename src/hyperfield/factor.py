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
target degree, and recombination of subsets by ascending degree. The
factorization mod q and the lift are the kernels' irreducible_factors
and hensel_lift (hensel_lift_factors is the one call site of the lift);
the sort of the factors into one order and the recombination stay here.
factor_over_q refuses degrees above its cap (default 12).
prime_factors factors integers: trial division, then Brent's rho.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math

from . import _kernels as kernels
from ._kernels.pure import _mul_mod
from .errors import BadPrime, ConstantPolynomial, DegreeCapExceeded, NotSquarefree, TooManyPrimes, ZeroInput
# Nothing here calls discriminant: good_splitting_types finds good primes
# without it. The name stays for perfbench/trace_spans.WRAPPED and the tests.
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


_PRIMES = [2]  # every prime up to _PRIMES[-1], ascending; grown by _sieve_next


def _sieve_next() -> None:
    """Append the primes in (last, 2 * last], last = _PRIMES[-1], by a sieve
    of Eratosthenes: each composite there has a prime factor p <= last, and
    (Bertrand's postulate) at least one prime lies there."""
    lo, size = _PRIMES[-1] + 1, _PRIMES[-1]
    sieve = bytearray(b"\x01") * size  # sieve[i] stands for lo + i
    for p in _PRIMES:
        if p * p >= lo + size:
            break
        first = -lo % p  # the offset of p's first multiple in the segment
        sieve[first::p] = bytes(len(range(first, size, p)))
    _PRIMES.extend(itertools.compress(range(lo, lo + size), sieve))


def primes_from(start: int):
    """Ascending primes >= start, read from the prime table."""
    i = bisect.bisect_left(_PRIMES, start)
    while True:
        if i == len(_PRIMES):
            _sieve_next()
        if _PRIMES[i] >= start:
            yield _PRIMES[i]
        i += 1


# The most primes one walk may take (certify --primes, census
# fingerprint_primes); larger counts are refused (exit 5). The sieve
# reaches the 10,000th prime, 104,729, in about 6 ms, and a walk of
# x^3 + x + 1 over those primes takes 0.08 s (2-core x86-64 host).
MAX_PRIME_COUNT = 10_000


def check_prime_count(count: int) -> None:
    """Raise TooManyPrimes if count is above MAX_PRIME_COUNT."""
    if count > MAX_PRIME_COUNT:
        raise TooManyPrimes(f"{count} primes requested; at most {MAX_PRIME_COUNT} are sampled")


# primes_not_dividing finds which of the first _GCD_PRIMES primes divide
# `bad` from one gcd with their product.
_GCD_PRIMES = 64


@functools.cache
def _gcd_product() -> int:
    """The product of the first _GCD_PRIMES primes, built on first use, not
    at import."""
    return math.prod(itertools.islice(primes_from(2), _GCD_PRIMES))


def primes_not_dividing(bad: int, count: int, start: int = 2) -> list[int]:
    """The first `count` primes >= start that do not divide `bad` (for
    example lc(F), or lc(F) * Disc(F) where Disc(F) is known anyway).
    From 2, when `count` of the first _GCD_PRIMES primes survive, they are
    read off g = gcd(bad, their product): only a prime dividing g divides
    `bad`. Otherwise the primes are tried one by one."""
    check_prime_count(count)
    if bad == 0:
        raise ValueError("every prime divides 0; no good primes exist")
    if start <= 2 and count <= _GCD_PRIMES:
        P = _gcd_product()
        # The table holds every prime up to its end, so once it holds
        # _GCD_PRIMES of them they are the primes of P.
        if len(_PRIMES) >= _GCD_PRIMES:
            good = _PRIMES[:_GCD_PRIMES]
            g = math.gcd(bad, P)
            # Every prime of g is among the first _GCD_PRIMES: strike each
            # from `good`, and stop once g is 1.
            for q in _PRIMES:
                if g == 1:
                    break
                if g % q == 0:
                    good.remove(q)
                    while g % q == 0:
                        g //= q
            if len(good) >= count:
                return good[:count]
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

    Each batch asks for the primes still missing. After a batch with no
    good prime the next is twice as long, but ends where the marked
    product would pass the bound if it too were all marked: where
    Disc(F) = 0 every prime is marked, and passing the bound can take
    hundreds of them. Where Disc(F) != 0 the marked product never passes
    it, and the primes past the first `count` good ones are dropped.
    """
    check_prime_count(count)
    if F.degree < 1:
        raise ConstantPolynomial("discriminant requires degree >= 1")
    bound = F.degree**F.degree * sum(c * c for c in F.coeffs) ** (F.degree - 1)
    primes = (q for q in primes_from(start) if F.lc % q)
    found: list[tuple[int, tuple[int, ...]]] = []
    marked, size, doubled = 1, count, False
    while len(found) < count:
        batch, reach = [], marked
        for q in primes:
            batch.append(q)
            reach *= q
            if len(batch) == size or doubled and reach > bound:
                break
        before = len(found)
        for q, t in zip(batch, kernels.splitting_types(F.coeffs, batch)):
            if t is None:
                marked *= q
            else:
                found.append((q, tuple(t)))
        if marked > bound:
            raise NotSquarefree("Disc = 0: the polynomial is not squarefree, so no good primes exist")
        doubled = len(found) == before
        size = 2 * size if doubled else count - len(found)
    return found[:count]


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


def hensel_lift_factors(f_coeffs: list[int], mod_factors: list[list[int]], q: int, target: int) -> list[list[int]]:
    """The monic factors of f mod q lifted to mod target = q^k, in order,
    with lc(f) * prod = f mod target: the kernel's hensel_lift, named here
    as the one call site of the lift."""
    return kernels.hensel_lift(f_coeffs, mod_factors, q, target)


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
    Otherwise the factors mod the prime q with the fewest of them
    (kernels.irreducible_factors, in splitting order) are sorted by
    (length, coefficients) and Hensel-lifted once, to the power of q past
    Mignotte's bound (hensel_lift_factors; in the C kernel up to its
    delayed-reduction bound, about 1.24e9 at degree 12, from pure.py
    beyond). The factors and their lifts are unique and the sort fixes
    their order, so the pool is the same on either backend. For each
    target degree d, ascending, every subset of lifted factors of total
    degree d is tried by exact division. A factor found at degree d is
    irreducible when g has no irreducible factor of lower degree outside
    the search: degrees 1..deg/2 give the factorization into irreducibles.
    """
    entries = good_splitting_types(g, _MUSSER_PRIMES, 3)
    targets = musser_degrees((t for _, t in entries), degrees)
    if not targets:
        return [g]
    q = min(entries, key=lambda e: len(e[1]))[0]
    # Only factors of degree <= max(targets) are rebuilt from the lift; the
    # cofactor comes from exact division, so the bound is sized to them.
    m = _mignotte_modulus(g, q, max(targets))
    factors = sorted(kernels.irreducible_factors(g.coeffs, q), key=lambda v: (len(v), v))
    pool = hensel_lift_factors(list(g.coeffs), factors, q, m)

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
