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


def _rem_mod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f, with f monic."""
    r = list(a)
    df = len(f) - 1
    while len(r) - 1 >= df:
        t = r[-1]
        if t:
            shift = len(r) - 1 - df
            for i in range(df):
                r[shift + i] = (r[shift + i] - t * f[i]) % p
        r.pop()
        _trim(r)
        if not r:
            break
    return r

def _monic(a: list[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        b = _monic(b, p)
        a, b = b, _rem_mod(a, b, p)
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


def _pow_mod(a: list[int], e: int, f: list[int], p: int, table) -> list[int]:
    """a^e mod (f, p), f monic, for table = _power_table(f, p): products
    reduce through it, or by schoolbook division when it is None."""
    def mul(x, y):
        if table is None:
            return _rem_mod(_mul_mod(x, y, p), f, p)
        return _mul_rem(x, y, table, p)

    out = [1]
    base = _rem_mod(_reduce(a, p), f, p)
    while e:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out


def _deriv_mod(a: list[int], p: int) -> list[int]:
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def _prep(coeffs, p: int) -> list[int]:
    if p < 2:
        raise ValueError("modulus must be a prime >= 2")
    f = [c % p for c in coeffs]
    if not f or f[-1] == 0:
        raise ValueError("leading coefficient divisible by p")
    return _monic(f, p)


def ddf_degrees(coeffs, p: int) -> list[int]:
    """Degrees of the irreducible factors of coeffs mod p, descending.

    Requires p prime, p not dividing the leading coefficient, and the
    reduction squarefree mod p (checked; raises ValueError otherwise).
    """
    f = _prep(coeffs, p)
    if len(f) == 1:
        raise ValueError("constant polynomial mod p")
    if _gcd_mod(f, _deriv_mod(f, p), p) != [1]:
        raise ValueError("not squarefree mod p")
    degs = [k for block, k in _ddf_blocks(f, p) for _ in range((len(block) - 1) // k)]
    degs.sort(reverse=True)
    return degs


def splitting_types(coeffs, primes) -> list[list[int]]:
    """ddf_degrees of coeffs at each prime, in order."""
    return [ddf_degrees(coeffs, p) for p in primes]


def _ddf_blocks(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization of monic f, squarefree mod p.

    Pairs (block, k): block is the monic product of all irreducible
    factors of degree k, found by iterated gcd(x^(p^k) - x, f).
    """
    blocks: list[tuple[list[int], int]] = []
    h = _rem_mod([0, 1], f, p)
    table = _power_table(f, p)
    k = 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        h = _pow_mod(h, p, f, p, table)
        hx = list(h) + [0] * max(0, 2 - len(h))
        hx[1] = (hx[1] - 1) % p
        g = _gcd_mod(_trim(hx), f, p)
        if len(g) > 1:
            blocks.append((g, k))
            f = _divmod_mod(f, g, p)[0]
            table = _power_table(f, p)
            h = _rem_mod(h, f, p)
    if len(f) > 1:
        blocks.append((f, len(f) - 1))
    return blocks


def _divmod_mod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r mod m, for monic b and a reduced mod m."""
    r = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(a) - db)
    while len(r) - 1 >= db:
        t = r[-1]
        shift = len(r) - 1 - db
        q[shift] = t
        if t:
            for i in range(db):
                r[shift + i] = (r[shift + i] - t * b[i]) % m
        r.pop()
        _trim(r)
    return _trim(q), r
