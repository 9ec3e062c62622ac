"""Pure-Python mod-p polynomial kernels.

Same contract as the compiled backend in ``_speed.c``, and the reference
for it; polynomials are lists of ints ascending in degree, moduli are
Python ints of any size. Four kernels: ``splitting_types`` and
``resultants`` (the hot path of the census: irreducibility screening,
splitting-type fingerprints and Disc), and ``irreducible_factors`` and
``hensel_lift``, the modular core of Zassenhaus's algorithm in
``factor.lift_and_recombine``. The C kernel declines a Hensel target past
its delayed-reduction bound, and this module lifts there.

The private helpers are also the package's one mod-m polynomial toolkit:
``_reduce``, ``_mul_mod`` and ``_divmod_mod`` take any modulus m >= 2
(Hensel lifting works mod q^k, and ``factor`` recombines lifted factors
with ``_mul_mod``), and ``_ddf_blocks`` is the distinct-degree stage that
Cantor-Zassenhaus (``_equal_degree``) splits further. It takes
r^((q^d-1)/2) as N(r)^((q-1)/2) for the norm N(r) = prod_{i<d} r^(q^i),
each r^(q^i) one product with the block's Frobenius matrix, as the C
kernel must to keep its exponent in 64 bits; the random r come from
``_draws``, the C kernel's generator, so both take the same steps.

Products of operands of degree at least ``_PACK_MIN`` are Kronecker
substitutions (Harvey, J. Symb. Comp. 44, 2009): each operand, reduced
mod m, is packed into one Python int with one fixed-width slot per
coefficient, wide enough that no slot of the product overflows, so the
product is one big-integer multiply and one ``% m`` per slot. Powering
modulo a monic f of degree at least ``_PACK_MIN`` reduces each product
through ``_power_table(f, m)``, the packed x^i mod f, which the caller
builds once per f. Shorter operands keep the schoolbook loops, which are
faster there.

The distinct-degree loop (``_ddf_blocks``) powers only once: x^p mod f.
Each later x^(p^d) is Q h, for Berlekamp's Frobenius matrix Q (row i is
x^(ip) mod f; von zur Gathen and Shoup, Comput. Complexity 2, 1992),
since (sum h_i x^i)^p = sum h_i x^(ip) when p is prime. The rows are
packed like the products above, in slots wide enough for a sum of
deg f products of residues (below deg f * (p-1)^2), so Q h is a sum of
big-integer row multiples and one ``% p`` per slot. h stays modulo the
original f; each gcd(h - x, f) is against the part of f left. A
composite modulus runs the same steps (and the C kernel mirrors them),
so both backends still agree there, though the degrees mean nothing.

``_gcd_mod`` (the squarefree test, the distinct-degree gcds and
Cantor-Zassenhaus) is Euclid by pseudo-remainders (Knuth,
TAOCP 2, 4.6.1, Algorithm R): x <- c x - t x^s y for c = lc(y) and
t = lc(x), dropping the top term, with no inverse per step. Over a field
each remainder is a nonzero multiple of the monic one, so making only
the final gcd monic gives the same gcd with one inversion.
"""
from __future__ import annotations

import itertools
import sys
from array import array

BACKEND = "pure"

# The degree from which packed products beat schoolbook ones: products of
# operands of at least this degree, powering modulo f of this degree.
# Read off benchmarks/bench_kernels.py, which prints the crossover.
_PACK_MIN = 8

_TYPECODES = {array(t).itemsize: t for t in "QIHB"}  # slot bytes -> array typecode


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _reduce(coeffs, p: int) -> list[int]:
    return _trim([c % p for c in coeffs])


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for values 0..bound: 1, 2, 4 or 8 when that suffices
    (so an array packs them), else the exact byte count."""
    k = (bound.bit_length() + 7) // 8
    return next((w for w in sorted(_TYPECODES) if k <= w), k)


def _pack(a: list[int], k: int) -> int:
    """sum a[i] * 2^(8ki), for 0 <= a[i] < 2^(8k)."""
    typecode = _TYPECODES.get(k)
    if typecode is None:
        return int.from_bytes(b"".join(c.to_bytes(k, "little") for c in a), "little")
    slots = array(typecode, a)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _unpack(x: int, k: int, count: int, m: int) -> list[int]:
    """The first `count` k-byte slots of x >= 0 (which has no others), mod m."""
    buf = x.to_bytes(k * count, "little")
    typecode = _TYPECODES.get(k)
    if typecode is None:
        return [int.from_bytes(buf[i:i + k], "little") % m for i in range(0, len(buf), k)]
    slots = array(typecode, buf)
    if sys.byteorder == "big":
        slots.byteswap()
    return [c % m for c in slots]


def _mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    short = min(len(a), len(b))
    if short <= _PACK_MIN:
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % p
        return _trim(out)
    # Each product slot is a sum of at most `short` products below p^2.
    k = _slot_bytes(short * (p - 1) ** 2)
    pa = _pack([c % p for c in a], k)
    pb = pa if b is a else _pack([c % p for c in b], k)
    return _trim(_unpack(pa * pb, k, len(a) + len(b) - 1, p))


def _monic(a: list[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b mod p, for a and b reduced mod p and
    trimmed: Euclid by pseudo-remainders (see the module docstring), step
    for step as the C kernel's gcd. While deg x >= deg y, one step sets
    x <- c x - t x^s y, for s = deg x - deg y."""
    x, y = list(a), list(b)
    while y:
        c, dy = y[-1], len(y) - 1
        while len(x) > dy:
            t = p - x.pop()
            s = len(x) - dy
            for i in range(s):
                x[i] = c * x[i] % p
            for i in range(dy):
                x[s + i] = (c * x[s + i] + t * y[i]) % p
            _trim(x)
        x, y = y, x
    return _monic(x, p)


def _power_table(f: list[int], p: int):
    """What _pow_mod reduces through, for f monic and reduced mod p: the
    slot width k and x^i mod f packed, for deg f <= i <= 2 deg f - 2; or
    None when deg f < _PACK_MIN. Build it once per f."""
    n = len(f) - 1
    if n < _PACK_MIN:
        return None
    # A reduced slot: one product slot (< n p^2) plus n - 1 table terms (< p^2 each).
    k = _slot_bytes(2 * n * (p - 1) ** 2)
    rows = []
    r = [-c % p for c in f[:-1]]  # x^n mod f
    for _ in range(n - 1):
        rows.append(_pack(r, k))
        top = r[-1]  # x * r = top * x^n + (r shifted up one place)
        r = [(c - top * fc) % p for c, fc in zip([0] + r[:-1], f)]
    return k, rows


def _mul_rem(a: list[int], b: list[int], table, p: int) -> list[int]:
    """a * b mod (f, p) for a, b reduced mod (f, p), table = _power_table(f, p)."""
    k, rows = table
    n = len(rows) + 1
    pa = _pack(a, k)
    prod = pa * (pa if b is a else _pack(b, k))
    low_bits = 8 * k * n
    acc = prod & ((1 << low_bits) - 1)
    for c, row in zip(_unpack(prod >> low_bits, k, n - 1, p), rows):
        if c:
            acc += c * row
    return _trim(_unpack(acc, k, n, p))


def _mul_rem_f(a: list[int], b: list[int], f: list[int], p: int, table) -> list[int]:
    """a * b mod (f, p) for f monic: through table = _power_table(f, p),
    or by schoolbook division when it is None."""
    if table is None:
        return _divmod_mod(_mul_mod(a, b, p), f, p)[1]
    return _mul_rem(a, b, table, p)


def _pow_mod(a: list[int], e: int, f: list[int], p: int, table) -> list[int]:
    """a^e mod (f, p), f monic, for table = _power_table(f, p)."""
    out = [1]
    base = _divmod_mod(_reduce(a, p), f, p)[1]
    while e:
        if e & 1:
            out = _mul_rem_f(out, base, f, p, table)
        e >>= 1
        if e:
            base = _mul_rem_f(base, base, f, p, table)
    return out


def _frobenius_rows(f: list[int], xp: list[int], p: int, table):
    """Berlekamp's Q for monic f of degree n >= 2, from xp = x^p mod f and
    table = _power_table(f, p): the slot width k and the rows x^(ip) mod f
    packed, 0 <= i < n, with slots wide enough for a sum of n products of
    residues."""
    n = len(f) - 1
    k = _slot_bytes(n * (p - 1) ** 2)
    row, rows = xp, [1, _pack(xp, k)]
    for _ in range(n - 2):
        row = _mul_rem_f(row, xp, f, p, table)
        rows.append(_pack(row, k))
    return k, rows


def _frobenius(h: list[int], q, p: int) -> list[int]:
    """Q h for q = _frobenius_rows(f, ...) and h reduced mod (f, p): the
    packed rows times the coefficients of h, summed, then unpacked. For p
    prime this is h^p mod (f, p)."""
    k, rows = q
    acc = 0
    for c, row in zip(h, rows):
        if c:
            acc += c * row
    return _trim(_unpack(acc, k, len(rows), p))


def _deriv_mod(a: list[int], p: int) -> list[int]:
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def _prep(coeffs, p: int) -> list[int]:
    if p < 2:
        raise ValueError("modulus must be a prime >= 2")
    f = [c % p for c in coeffs]
    if not f or f[-1] == 0:
        raise ValueError("leading coefficient divisible by p")
    return _monic(f, p)


def _squarefree(coeffs, p: int) -> list[int] | None:
    """coeffs reduced mod p and made monic (_prep), or None where that is
    not squarefree mod p; ValueError where it is constant."""
    f = _prep(coeffs, p)
    if len(f) == 1:
        raise ValueError("constant polynomial mod p")
    return f if _gcd_mod(f, _deriv_mod(f, p), p) == [1] else None


def _degrees(coeffs, p: int) -> list[int] | None:
    """The degrees of the irreducible factors of coeffs mod p, descending,
    or None where the reduction is not squarefree mod p. Requires p prime
    and not dividing the leading coefficient (the latter checked)."""
    f = _squarefree(coeffs, p)
    if f is None:
        return None
    degs = [k for block, k in _ddf_blocks(f, p) for _ in range((len(block) - 1) // k)]
    degs.sort(reverse=True)
    return degs


def splitting_types(coeffs, primes) -> list[list[int] | None]:
    """The factor degrees of coeffs at each prime, in order, with None at a
    prime where the reduction is not squarefree. For p prime and not
    dividing lc, that is exactly where p divides Disc(coeffs), so a caller
    finds good primes without Disc."""
    return [_degrees(coeffs, p) for p in primes]


def _resultant(a, b, p: int) -> int:
    """Res(a, b) mod p, by Euclid's remainder sequence over Z/p that
    tracks leading coefficients: making y monic scales Res(x, y) by
    lc(y)^deg x, and Res(x, y) = (-1)^(deg x deg y) Res(y, x mod y) for
    monic y. ValueError where p < 2 or p divides a leading coefficient,
    and (p composite) where a leading coefficient is not invertible."""
    if p < 2:
        raise ValueError("modulus must be a prime >= 2")
    x, y = [c % p for c in a], [c % p for c in b]
    if not (x and x[-1] and y and y[-1]):
        raise ValueError("leading coefficient divisible by p")
    m, n = len(x) - 1, len(y) - 1
    res = 1
    if m < n:
        x, y, m, n = y, x, n, m
        res = -1 if m * n % 2 else 1
    while n > 0:
        res = res * pow(y[-1], m, p) % p
        y = _monic(y, p)
        r = _divmod_mod(x, y, p)[1]
        if not r:
            return 0
        if m * n % 2:
            res = -res
        x, y, m, n = y, r, n, len(r) - 1
    return res * pow(y[0], m, p) % p


def resultants(a, b, primes) -> list[int]:
    """Res(a, b) mod each prime, in order, for coefficient sequences a and
    b ascending in degree, with the sign convention of intpoly.resultant."""
    return [_resultant(a, b, p) for p in primes]


def _ddf_blocks(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization of monic f, squarefree mod p.

    Pairs (block, k): block is the monic product of all irreducible
    factors of degree k, found by iterated gcd(x^(p^k) - x, f). x^p mod f
    is one powering; each later x^(p^k) is one product with Berlekamp's
    Q (_frobenius), which needs p prime. h = x^(p^k) stays modulo the
    original f, and the gcd is taken against the part of f still left.
    """
    blocks: list[tuple[list[int], int]] = []
    full = f
    k = 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        if k == 1:
            table = _power_table(full, p)
            h = _pow_mod([0, 1], p, full, p, table)
        else:
            if k == 2:
                q = _frobenius_rows(full, h, p, table)
            h = _frobenius(h, q, p)
        hx = list(h) + [0] * max(0, 2 - len(h))
        hx[1] = (hx[1] - 1) % p
        g = _gcd_mod(_trim(hx), f, p)
        if len(g) > 1:
            blocks.append((g, k))
            f = _divmod_mod(f, g, p)[0]
    if len(f) > 1:
        blocks.append((f, len(f) - 1))
    return blocks


def _divmod_mod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r mod m, for monic b and a reduced mod m."""
    r = list(a)
    db = len(b) - 1
    if len(r) <= db:
        return [], r
    q = [0] * (len(r) - db)
    for shift in range(len(r) - 1 - db, -1, -1):
        t = r.pop()
        q[shift] = t
        if t:
            for i in range(db):
                r[shift + i] = (r[shift + i] - t * b[i]) % m
    return _trim(q), _trim(r)


# -- Cantor-Zassenhaus and Hensel lifting ------------------------------------

_MASK64 = (1 << 64) - 1
# Random polynomials drawn per split before _split gives up. For q an odd
# prime a draw fails to split w with probability at most 1/2 (von zur
# Gathen and Gerhard, Lemma 14.9), so 64 failures in a row have
# probability at most 2^-64; a composite modulus can exhaust them.
_SPLIT_TRIES = 64


def _draws():
    """splitmix64 from state 0 (Steele, Lea and Flood, OOPSLA 2014): the
    one generator of the random polynomials, as the C kernel's splitmix."""
    s = 0
    while True:
        s = (s + 0x9E3779B97F4A7C15) & _MASK64
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _split(w: list[int], d: int, q: int, frob, draws) -> list[int]:
    """A monic factor g of w with 0 < deg g < deg w, for w monic and a
    product of irreducibles of degree d mod q: gcd(r, w) or
    gcd(N(r)^((q-1)/2) - 1, w) for r drawn from `draws`, where the norm
    N(r) = prod_{i<d} r^(q^i) mod w takes each r^(q^i) from the last by
    frob, the Frobenius matrix of a multiple of w (None for d = 1). On
    each factor of w, N(r) lies in F_q and N(r)^((q-1)/2) equals
    r^((q^d-1)/2). ValueError after _SPLIT_TRIES draws."""
    n = len(w) - 1
    table = _power_table(w, q)
    for _ in range(_SPLIT_TRIES):
        r = _trim([next(draws) % q for _ in range(n)])
        if not r:
            continue
        g = _gcd_mod(r, w, q)
        if 0 < len(g) - 1 < n:
            return g
        t = norm = r
        for _ in range(d - 1):
            t = _divmod_mod(_frobenius(t, frob, q), w, q)[1]
            norm = _mul_rem_f(norm, t, w, q, table)
        s = _pow_mod(norm, (q - 1) // 2, w, q, table) or [0]
        s[0] = (s[0] - 1) % q
        g = _gcd_mod(_trim(s), w, q)
        if 0 < len(g) - 1 < n:
            return g
    raise ValueError("equal-degree splitting found no factor in 64 draws")


def _equal_degree(block: list[int], d: int, q: int, draws) -> list[list[int]]:
    """The monic irreducible factors of a distinct-degree block (all of
    degree d), split by _split in last-in first-out order."""
    if len(block) - 1 == d:
        return [block]
    frob = None
    if d > 1:
        table = _power_table(block, q)
        frob = _frobenius_rows(block, _pow_mod([0, 1], q, block, q, table), q, table)
    factors, work = [], [block]
    while work:
        w = work.pop()
        if len(w) - 1 == d:
            factors.append(w)
            continue
        g = _split(w, d, q, frob, draws)
        work += [g, _divmod_mod(w, g, q)[0]]
    return factors


def irreducible_factors(coeffs, q: int) -> list[list[int]]:
    """The monic irreducible factors of coeffs mod an odd prime q, sorted
    by (length, coefficients): the distinct-degree blocks of _ddf_blocks,
    each split by Cantor-Zassenhaus (_equal_degree). ValueError where q
    is even or below 3, where q divides the leading coefficient, where
    coeffs is constant or not squarefree mod q, and (q composite) where
    an inverse does not exist or no split is found."""
    if q < 3 or q % 2 == 0:
        raise ValueError("modulus must be an odd prime")
    f = _squarefree(coeffs, q)
    if f is None:
        raise ValueError("not squarefree mod p")
    draws = _draws()
    factors = [g for block, d in _ddf_blocks(f, q) for g in _equal_degree(block, d, q, draws)]
    factors.sort(key=lambda v: (len(v), v))
    return factors


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


def hensel_lift(coeffs, factors, q: int, target: int) -> list[list[int]]:
    """The monic factors of coeffs mod q lifted to mod target = q^k, in
    order, with lc * prod = coeffs mod target (von zur Gathen and Gerhard,
    Modern Computer Algebra, 15.4). Peels one factor at a time: the first
    factor and lc times the product of the rest are lifted as a pair by
    quadratic steps, and the lifted rest is split the same way.
    ValueError where q < 2, where target is not a power of q, where q
    divides the leading coefficient, or where the factors are not monic
    and nonconstant mod q with lc * prod = coeffs mod q; and where they
    are not coprime or (q composite) an inverse does not exist."""
    if q < 2:
        raise ValueError("modulus must be a prime >= 2")
    m = q
    while m < target:
        m *= q
    if m != target:
        raise ValueError("target must be a power of q")
    f = list(coeffs)
    if not f or f[-1] % q == 0:
        raise ValueError("leading coefficient divisible by p")
    factors = [_reduce(u, q) for u in factors]
    product = [f[-1] % q]
    for u in factors:
        product = _mul_mod(product, u, q)
    if not factors or any(len(u) < 2 or u[-1] != 1 for u in factors) or product != _reduce(f, q):
        raise ValueError("factors must be monic and nonconstant mod q, with lc(F) times their product F")
    lifted = []
    for i, h in enumerate(factors[:-1]):
        g = [f[-1] % q]
        for u in factors[i + 1:]:
            g = _mul_mod(g, u, q)
        s, t = _bezout_mod(g, h, q)
        m = q
        while m < target:
            g, h, s, t, m = _hensel_step(f, g, h, s, t, m, target)
        lifted.append(h)
        f = g
    inv = pow(f[-1] % target, -1, target)
    return lifted + [_reduce([c * inv for c in f], target)]
