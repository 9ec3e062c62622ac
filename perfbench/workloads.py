"""The benchmark's workloads and the inputs each one hands the program.

A census is a deterministic function of (curve, n, Y), and its cost
depends strongly on the curve: on six even quartics at Y = 1 the number
of exact isomorphism tests, which dominate that workload, ranged over
2-12 and the wall time over 1.5-8 s. So the census boxes are fixed;
the seed picks the presentation of the cubic under x -> -x (f(x) or
f(-x), whose census is the mirror image and costs the same) and leaves
the quartic census unchanged. The certify batch draws fresh polynomials
from the seed, with a fixed make-up per degree so every seed costs about
the same; the seed also drives the certify checks' sampling.
"""
from __future__ import annotations

import random
from fractions import Fraction

CUBIC = (1, 1, 0, 1)  # x^3 + x + 1, the curve of the package's CLI examples
QUARTIC = (1, 0, 0, 0, 1)  # x^4 + 1: x -> -x is a symmetry, so classes collide

WORKLOADS = ("census-cubic-n4", "census-quartic-iso", "certify-batch")  # why: see BENCHMARK.json

CERTIFY_DEGREES = (8, 9, 10, 11, 12)
# Two draws per degree: with one, a batch's cost moved by about 5% from
# one seed to the next, which is as much as the host's noise.
CERTIFY_ROUNDS = 2
CERTIFY_PRIMES = 100


def mirror(coeffs) -> tuple[int, ...]:
    """Coefficients of p(-x)."""
    return tuple(c if i % 2 == 0 else -c for i, c in enumerate(coeffs))


def poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _squarefree_int(n: int) -> bool:
    return all(n % (k * k) for k in range(2, int(n**0.5) + 1))


def _random_monic(rng: random.Random, degree: int, height: int) -> list[int]:
    coeffs = [rng.randint(-height, height) for _ in range(degree)] + [1]
    coeffs[0] = coeffs[0] or 1
    return coeffs


def certify_batch(rng: random.Random, degrees=CERTIFY_DEGREES) -> list[dict]:
    """Per degree: three generic polynomials (lc 1, 2, 3, coefficients up
    to 10^3), one product of two monic factors, and one a - x^d with
    squarefree a (irreducible by Capelli, Galois group not S_d)."""
    polys = []
    for d in degrees:
        for lc in (1, 2, 3):
            coeffs = [rng.randint(-1000, 1000) for _ in range(d)] + [lc]
            coeffs[0] = coeffs[0] or 1
            polys.append({"family": "generic", "coeffs": coeffs})
        polys.append({"family": "product", "coeffs": poly_mul(_random_monic(rng, d // 2, 30), _random_monic(rng, d - d // 2, 30))})
        a = rng.choice([k for k in range(2, 1000) if _squarefree_int(k)])
        polys.append({"family": "radical", "coeffs": [a] + [0] * (d - 1) + [-1]})
    return polys


def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """The program's inputs for one workload and seed. `smoke` gives the
    seconds-long sizes that the benchmark's own tests run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census-cubic-n4":
        curve = CUBIC if rng.random() < 0.5 else mirror(CUBIC)
        return {"kind": "census", "curve": list(curve), "n": 4, "Y": str(Fraction(2) if smoke else Fraction(7, 2))}
    if workload == "census-quartic-iso":
        # Y = 5/4 takes the rational-Y path and gives the smallest box
        # (81 records), which already makes three exact isomorphism tests.
        return {"kind": "census", "curve": list(QUARTIC), "n": 6, "Y": str(Fraction(5, 4))}
    if workload == "certify-batch":
        polys = certify_batch(rng, degrees=(8,) if smoke else CERTIFY_DEGREES * CERTIFY_ROUNDS)
        return {"kind": "certify", "polys": polys, "primes": CERTIFY_PRIMES}
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def item_count(inputs: dict) -> int:
    """Operations in one job: census records (the box cardinality, computed
    by the checks independently) or certified polynomials."""
    if inputs["kind"] == "certify":
        return len(inputs["polys"])
    from checks import box_cardinality

    return box_cardinality(inputs["curve"], inputs["n"], Fraction(inputs["Y"]))
