"""Pure-Python mod-p polynomial kernels.

Same contract as the compiled backend in ``_speed.c``; polynomials are
lists of ints ascending in degree, moduli are Python ints of any size.
These routines are the hot path of the census (irreducibility screening
and splitting-type fingerprints), so they stay allocation-light.

The private helpers are also the package's one mod-m polynomial toolkit:
``_reduce``, ``_mul_mod`` and ``_divmod_mod`` take any modulus m >= 2
(Hensel lifting works mod q^k), and ``_ddf_blocks`` is the
distinct-degree stage that Cantor-Zassenhaus in ``factor`` splits further.
"""
from __future__ import annotations

BACKEND = "pure"


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _reduce(coeffs, p: int) -> list[int]:
    return _trim([c % p for c in coeffs])


def _mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


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


def _pow_mod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e mod (f, p), f monic."""
    out = [1]
    base = _rem_mod(a, f, p)
    while e:
        if e & 1:
            out = _rem_mod(_mul_mod(out, base, p), f, p)
        base = _rem_mod(_mul_mod(base, base, p), f, p)
        e >>= 1
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
    k = 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        h = _pow_mod(h, p, f, p)
        hx = list(h) + [0] * max(0, 2 - len(h))
        hx[1] = (hx[1] - 1) % p
        g = _gcd_mod(_trim(hx), f, p)
        if len(g) > 1:
            blocks.append((g, k))
            f = _divmod_mod(f, g, p)[0]
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
