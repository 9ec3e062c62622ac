#!/usr/bin/env python3
"""Benchmark the compiled C kernel against the pure-Python kernels, and
packed against schoolbook products in the mod-m toolkit.

The kernel workload mirrors the census hot path: degree partitions mod
small primes one call at a time (irreducibility screening) and the same
partitions at its good primes among the first 50 in one
``splitting_types`` call per polynomial (the record's fingerprint). Both
backends run on identical inputs and must agree. The compiled module is
the one ``hyperfield._kernels`` loads (compiled on first use into the
user cache).

The toolkit rows time ``pure._mul_mod`` on two operands of degree d and
``pure._pow_mod`` (a^13 modulo a monic f of degree d, building the
packed table once per call, the most a caller pays for it) at degrees
4, 8, 12, 36 and 72 and moduli 13, 2^61 - 1 and 13^23, once with every
product schoolbook and once with every product packed. Both must give
identical output. The crossover printed after the rows is the least
listed degree from which packing wins every row; ``pure._PACK_MIN`` is
set to it.

Usage: python benchmarks/bench_kernels.py [--trials N]
"""
import argparse
import pathlib
import random
import sys
import time
import timeit

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


TOOLKIT_DEGREES = (4, 8, 12, 36, 72)
TOOLKIT_MODULI = (("13", 13), ("2^61-1", 2**61 - 1), ("13^23", 13**23))
TOOLKIT_EXPONENT = 13
NEVER, ALWAYS = 1 << 30, 0  # pure._PACK_MIN values: every product schoolbook, or every one packed


def _best_time(fn) -> float:
    """Seconds per call: the best of three timings of about 0.05 s each."""
    timer = timeit.Timer(fn)
    reps = max(1, int(0.05 / max(timer.timeit(1), 1e-7)))
    return min(timer.repeat(3, reps)) / reps


def toolkit_rows(seed: int = 0):
    """(kind, degree, modulus name, schoolbook s, packed s) per toolkit row;
    asserts that both give identical output."""
    rng = random.Random(seed)
    rows = []
    saved = pure._PACK_MIN
    try:
        for d in TOOLKIT_DEGREES:
            for name, m in TOOLKIT_MODULI:
                a = [rng.randrange(m) for _ in range(d + 1)]
                b = [rng.randrange(m) for _ in range(d + 1)]
                f = [rng.randrange(m) for _ in range(d)] + [1]
                x = [rng.randrange(m) for _ in range(d)]
                calls = {
                    "multiply": lambda: pure._mul_mod(a, b, m),
                    "power": lambda: pure._pow_mod(x, TOOLKIT_EXPONENT, f, m, pure._power_table(f, m)),
                }
                for kind, call in calls.items():
                    times, outs = [], []
                    for pack_min in (NEVER, ALWAYS):
                        pure._PACK_MIN = pack_min
                        outs.append(call())
                        times.append(_best_time(call))
                    assert outs[0] == outs[1], f"packed {kind} differs from schoolbook at degree {d} mod {name}"
                    rows.append((kind, d, name, *times))
    finally:
        pure._PACK_MIN = saved
    return rows


def crossover(rows) -> int | None:
    """The least listed degree from which packing wins every row, or None."""
    for d in TOOLKIT_DEGREES:
        if all(packed < school for _, deg, _, school, packed in rows if deg >= d):
            return d
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=20_000)
    args = ap.parse_args()

    rows = toolkit_rows()
    print(f"{'toolkit':<10}{'degree':>7}{'modulus':>9}{'schoolbook (us)':>17}{'packed (us)':>13}{'speedup':>9}")
    for kind, d, name, school, packed in rows:
        print(f"{kind:<10}{d:>7}{name:>9}{school * 1e6:>17.1f}{packed * 1e6:>13.1f}{school / packed:>8.2f}x")
    found = crossover(rows)
    verdict = "matches" if found == pure._PACK_MIN else "DIFFERS from"
    print(f"\npacked and schoolbook outputs identical; packing wins every row from degree {found}, "
          f"which {verdict} pure._PACK_MIN = {pure._PACK_MIN}\n")

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
