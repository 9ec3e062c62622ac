"""A fixed amount of pure-Python work that times how fast the host runs now.

On a shared host the same job runs up to a third slower in some minutes
than in others, because other tenants share the hardware; process CPU
time slows with it, so it is not time the hypervisor stole. The run times
this loop between its jobs and scales every reported time to the speed
at which one round takes ``NOMINAL_ROUND_S`` (see run.py). The loop
imitates the package's hot path on the pure backend: powers of x modulo
a degree-12 polynomial and a prime, on lists of Python ints. It imports
nothing from the package, so no change to the package moves it.
"""
from __future__ import annotations

import time

ROUNDS = 250
NOMINAL_ROUND_S = 0.001
_P = 1_000_003
_F = (7, 3, 0, 5, 1, 9, 2, 8, 4, 6, 1, 3, 1)  # monic, lowest degree first


def _mulmod(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    d = len(_F) - 1
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k] % _P
        if c:
            for j in range(d):
                out[k - d + j] -= c * _F[j]
    return [c % _P for c in out[:d]]


def _x_power(r: int) -> list[int]:
    """(x + r)^P modulo (F, P) by square-and-multiply."""
    base, result, e = [r, 1], [1], _P
    while e:
        if e & 1:
            result = _mulmod(result, base)
        base = _mulmod(base, base)
        e >>= 1
    return result


def reference_seconds() -> float:
    t0 = time.perf_counter()
    for r in range(ROUNDS):
        _x_power(r)
    return time.perf_counter() - t0
