"""Pure-Python mod-p polynomial kernels.

Same contract as the compiled backend in ``_speed.c``; polynomials are
lists of ints ascending in degree, moduli are Python ints of any size.
These routines are the hot path of the census (irreducibility screening
and splitting-type fingerprints), so they stay allocation-light.

The private helpers are also the package's one mod-m polynomial toolkit:
``_reduce``, ``_mul_mod`` and ``_divmod_mod`` take any modulus m >= 2
(Hensel lifting works mod q^k), and ``_ddf_blocks`` is the
distinct-degree stage that Cantor-Zassenhaus in ``factor`` splits further.

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
"""
from __future__ import annotations

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
    a, b = list(a), list(b)
    while b:
        b = _monic(b, p)
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic(a, p)


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


def _degrees(coeffs, p: int) -> list[int] | None:
    """The degrees of the irreducible factors of coeffs mod p, descending,
    or None where the reduction is not squarefree mod p. Requires p prime
    and not dividing the leading coefficient (the latter checked)."""
    f = _prep(coeffs, p)
    if len(f) == 1:
        raise ValueError("constant polynomial mod p")
    if _gcd_mod(f, _deriv_mod(f, p), p) != [1]:
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
