#!/usr/bin/env python3
"""Benchmark the compiled C kernel against the pure-Python kernels.

The workload mirrors the census hot path: degree partitions mod small
primes one call at a time (irreducibility screening) and the same
partitions at its good primes among the first 50 in one
``splitting_types`` call per polynomial (the record's fingerprint). Both
backends run on identical inputs and must agree. The compiled module is
the one ``hyperfield._kernels`` loads (compiled on first use into the
user cache).

Usage: python benchmarks/bench_kernels.py [--trials N]
"""
import argparse
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from hyperfield._kernels import load_compiled, pure  # noqa: E402

PRIMES = [2, 3, 5, 7, 11, 13, 101, 257, 997, 65537]
POOL = [p for p in range(2, 230) if all(p % d for d in range(2, p))]  # the first 50 primes
KERNELS = ("ddf_degrees", "splitting_types")


def workload(trials: int, seed: int = 0):
    rng = random.Random(seed)
    cases = []
    for _ in range(trials):
        deg = rng.randint(3, 10)
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(deg)] + [rng.choice([1, 2, 3])]
        cases.append((coeffs, rng.choice(PRIMES)))
    return cases


def _outcome(kernel, coeffs, p):
    try:
        return kernel(coeffs, p)
    except ValueError as e:
        return str(e)


def _good(coeffs):
    """The primes of POOL at which coeffs is squarefree with a unit leading coefficient."""
    return [p for p in POOL if isinstance(_outcome(pure.ddf_degrees, coeffs, p), list)]


def run(backend, cases):
    outs, times = [], []
    for name, inputs in (
        ("ddf_degrees", cases),
        ("splitting_types", [(coeffs, _good(coeffs)) for coeffs, _ in cases[: len(cases) // 25]]),
    ):
        kernel = getattr(backend, name)
        t0 = time.perf_counter()
        outs.append([_outcome(kernel, coeffs, p) for coeffs, p in inputs])
        times.append(time.perf_counter() - t0)
    return outs, times


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=20_000)
    args = ap.parse_args()

    cases = workload(args.trials)
    pure_out, pure_times = run(pure, cases)
    compiled, why = load_compiled()
    print(f"{'kernel':<22}{'pure (s)':>12}{'c (s)':>14}{'speedup':>10}")
    if compiled is None:
        for name, tp in zip(KERNELS, pure_times):
            print(f"{name:<22}{tp:>12.3f}{'n/a':>14}{'n/a':>10}")
        print(f"\nno compiled kernel: {why}")
        return
    c_out, c_times = run(compiled, cases)
    assert pure_out == c_out, "backend outputs diverge"
    for name, tp, tc in zip(KERNELS, pure_times, c_times):
        print(f"{name:<22}{tp:>12.3f}{tc:>14.3f}{tp / tc:>9.1f}x")
    print(f"\n{args.trials} ddf_degrees cases, {args.trials // 25} polynomials at their good primes "
          f"among the first {len(POOL)}; "
          "outputs identical across backends")


if __name__ == "__main__":
    main()
