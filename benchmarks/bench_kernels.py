#!/usr/bin/env python3
"""Benchmark the compiled C kernel against the pure-Python kernels, and
packed against schoolbook products in the mod-m toolkit.

The kernel workload mirrors the census hot path through the one kernel
entry point, ``splitting_types``: degree partitions at one small prime
per call (irreducibility screening) and the same partitions at its good
primes among the first 50 in one call per polynomial (the record's
fingerprint). Both backends run on identical inputs and must agree. The
compiled module is the one ``hyperfield._kernels`` loads (compiled on
first use into the user cache).

The toolkit rows time ``pure._mul_mod`` on two operands of degree d and
``pure._pow_mod`` (a^13 modulo a monic f of degree d, building the
packed table once per call, the most a caller pays for it) at degrees
4, 8, 12, 36 and 72 and moduli 13, 2^61 - 1 and 13^23, once with every
product schoolbook and once with every product packed. Both must give
identical output. Each side is timed TIMINGS times; a row names a winner
only when each side's median lies outside the other side's range of
timings, and is unresolved otherwise. The crossover printed after the
rows is the least listed degree from which packing wins every row,
given as a range when unresolved rows leave it open; ``pure._PACK_MIN``
must lie in it.

The splitting-type rows time one batched ``splitting_types`` call per
polynomial at its first good primes (not dividing lc * Disc), in three
shapes: census (degree 4, 50 primes, the census fingerprint), iso
(degree 6, 50 primes, the census-quartic-iso records) and certify
(degrees 8 to 12, 100 primes, ``certify``'s default). Two more rows
take the first 100 primes not dividing lc alone, so that the kernel
marks (returns None at) the primes where F is not squarefree: marked,
for squarefree F = A (A + 210 C) L, which is a square times L mod 2, 3,
5 and 7, and square, for F = A^2 B, marked at every prime. Each row
prints microseconds per prime for both backends, best of three, and the
share of its primes that were marked.

The resultant rows time discriminant(F) per call, in microseconds, on
about RESULTANT_POLYS members F of three census boxes: census (degree 4,
the census-cubic-n4 box), iso (degree 6, census-quartic-iso) and n5
(degree 5, ``--n 5 --Y 5``, heights up to about 600). Each row compares
the subresultant PRS of ``tests/oracles.py`` with the package's modular
algorithm (``intpoly.discriminant``: residues from the ``resultants``
kernel, Chinese remaindering in Python) on each backend, best of three,
and asserts that all give the same discriminants.

The records rows time, in microseconds per record, the two per-record
steps of the census on the same members of the same three boxes:
building F, by the IntPolynomial products of ``tests/oracles.py``
(``family_product``) against ``family.family_coeffs``, and the good-prime
walk ``primes_not_dividing(lc(F) * Disc(F), 50)`` at each member with
Disc(F) != 0, by the prime-by-prime walk (forced by setting
``factor._GCD_PRIMES`` to 0) against the gcd with the product of the
first primes. Both pairs must give identical output.

Usage: python benchmarks/bench_kernels.py [--trials N]
"""
import argparse
import itertools
import pathlib
import random
import statistics
import sys
import time
import timeit
from fractions import Fraction

ROOT = pathlib.Path(__file__).parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hyperfield import _kernels, factor  # noqa: E402
from hyperfield._kernels import load_compiled, pure  # noqa: E402
from hyperfield.census import CensusConfig, CoefficientBox  # noqa: E402
from hyperfield.factor import primes_not_dividing  # noqa: E402
from hyperfield.family import FamilyShape, HyperellipticCurve, build_family_member, family_coeffs  # noqa: E402
from hyperfield.intpoly import IntPolynomial, discriminant, parse_poly  # noqa: E402
from oracles import family_product, prs_discriminant  # noqa: E402

PRIMES = [2, 3, 5, 7, 11, 13, 101, 257, 997, 65537]
POOL = [p for p in range(2, 230) if all(p % d for d in range(2, p))]  # the first 50 primes
KERNELS = ("one prime per call", "good primes batched")


def workload(trials: int, seed: int = 0):
    rng = random.Random(seed)
    cases = []
    for _ in range(trials):
        deg = rng.randint(3, 10)
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(deg)] + [rng.choice([1, 2, 3])]
        cases.append((coeffs, rng.choice(PRIMES)))
    return cases


def _outcome(kernel, coeffs, primes):
    try:
        return kernel(coeffs, primes)
    except ValueError as e:
        return str(e)


def _good(coeffs):
    """The primes of POOL at which coeffs is squarefree with a unit leading coefficient."""
    types = [_outcome(pure.splitting_types, coeffs, [p]) for p in POOL]
    return [p for p, t in zip(POOL, types) if isinstance(t, list) and t[0] is not None]


def run(backend, cases):
    """(outputs, seconds) of backend.splitting_types for each row of
    KERNELS: every case at its one prime, then every 25th polynomial at
    its good primes in one call."""
    outs, times = [], []
    for inputs in (
        [(coeffs, [p]) for coeffs, p in cases],
        [(coeffs, _good(coeffs)) for coeffs, _ in cases[: len(cases) // 25]],
    ):
        t0 = time.perf_counter()
        outs.append([_outcome(backend.splitting_types, coeffs, ps) for coeffs, ps in inputs])
        times.append(time.perf_counter() - t0)
    return outs, times


TOOLKIT_DEGREES = (4, 8, 12, 36, 72)
TOOLKIT_MODULI = (("13", 13), ("2^61-1", 2**61 - 1), ("13^23", 13**23))
TOOLKIT_EXPONENT = 13
NEVER, ALWAYS = 1 << 30, 0  # pure._PACK_MIN values: every product schoolbook, or every one packed
TIMINGS = 5


def _timings(fn) -> list[float]:
    """Seconds per call: TIMINGS timings of about 0.05 s each."""
    timer = timeit.Timer(fn)
    reps = max(1, int(0.05 / max(timer.timeit(1), 1e-7)))
    return [t / reps for t in timer.repeat(TIMINGS, reps)]


def winner(school: list[float], packed: list[float]) -> str:
    """"packed" or "schoolbook", the side with the lower median, when each
    side's median lies outside the other's range of timings; else
    "unresolved"."""
    ms, mp = statistics.median(school), statistics.median(packed)
    if min(school) <= mp <= max(school) or min(packed) <= ms <= max(packed):
        return "unresolved"
    return "packed" if mp < ms else "schoolbook"


def toolkit_rows(seed: int = 0):
    """(kind, degree, modulus name, schoolbook timings, packed timings) per
    toolkit row, in seconds per call; asserts that both give identical
    output."""
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
                        times.append(_timings(call))
                    assert outs[0] == outs[1], f"packed {kind} differs from schoolbook at degree {d} mod {name}"
                    rows.append((kind, d, name, *times))
    finally:
        pure._PACK_MIN = saved
    return rows


def crossover(rows) -> tuple[int | None, int | None]:
    """(lo, hi): the least listed degrees from which schoolbook wins no row,
    and from which packing wins every row; None where there is none. They
    differ only when unresolved rows leave the crossover open."""
    verdicts = [(deg, winner(school, packed)) for _, deg, _, school, packed in rows]

    def least(ok):
        return next((d for d in TOOLKIT_DEGREES if all(ok(v) for deg, v in verdicts if deg >= d)), None)

    return least(lambda v: v != "schoolbook"), least(lambda v: v == "packed")


CERTIFY_DEGREES = (8, 9, 10, 11, 12)
SPLITTING_SHAPES = (("census", (4,), 50), ("iso", (6,), 50), ("certify", CERTIFY_DEGREES, 100),
                    ("marked", CERTIFY_DEGREES, 100), ("square", CERTIFY_DEGREES, 100))
SPLITTING_POLYS = 20  # per degree


def _random_poly(rng, d: int, lc: int) -> IntPolynomial:
    return IntPolynomial([rng.randint(-1000, 1000) for _ in range(d)] + [lc])


def splitting_cases(name: str, degrees, count: int, seed: int = 0):
    """(coeffs, primes) for SPLITTING_POLYS polynomials of each degree
    (coefficients up to 10^3, lc 1 to 3) of the row `name`: random and
    squarefree at their first `count` good primes; or, for "marked" and
    "square", built as in the module docstring, at the first `count`
    primes not dividing lc."""
    rng = random.Random(seed)
    cases = []
    for d in degrees:
        while sum(len(c) - 1 == d for c, _ in cases) < SPLITTING_POLYS:
            a = _random_poly(rng, d // 2 - 1 if name == "square" else d // 2, rng.randint(1, 3))
            if name == "marked":
                F = a * (a + _random_poly(rng, a.degree - 1, 0) * 210) * _random_poly(rng, d - 2 * a.degree, 1)
            elif name == "square":
                F = a * a * _random_poly(rng, d - 2 * a.degree, 1)
            else:
                F = _random_poly(rng, d, rng.randint(1, 3))
            disc = discriminant(F)
            if name == "square":
                cases.append((list(F.coeffs), primes_not_dividing(F.lc, count)))
            elif disc:
                cases.append((list(F.coeffs), primes_not_dividing(F.lc * (disc if name != "marked" else 1), count)))
    return cases


def splitting_rows(backends):
    """(shape, degrees, primes, microseconds per prime for each backend,
    share of primes marked) per SPLITTING_SHAPES entry; asserts that the
    backends agree."""
    rows = []
    for name, degrees, count in SPLITTING_SHAPES:
        cases = splitting_cases(name, degrees, count)
        outs, times = [], []
        for backend in backends:
            outs.append([backend.splitting_types(c, ps) for c, ps in cases])
            best = min(timeit.repeat(lambda: [backend.splitting_types(c, ps) for c, ps in cases], number=1, repeat=3))
            times.append(best / (len(cases) * count) * 1e6)
        assert all(out == outs[0] for out in outs), f"backends disagree on the {name} splitting types"
        marked = sum(t is None for out in outs[0] for t in out) / (len(cases) * count)
        rows.append((name, degrees, count, times, marked))
    return rows


RESULTANT_SHAPES = (("census", "1,1,0,1", 4, "7/2"), ("iso", "1,0,0,0,1", 6, "5/4"), ("n5", "1,1,0,1", 5, "5"))
RESULTANT_POLYS = 200


def box_sample(curve: str, n: int, Y: str, count: int = RESULTANT_POLYS):
    """(curve, shape, specs): about `count` members of the census box of
    `curve` at (n, Y), evenly spread through its odometer order."""
    c = HyperellipticCurve(parse_poly(curve))
    shape = FamilyShape.census_shape(c.d, n)
    box = CoefficientBox.build(shape, Fraction(Y))
    specs = list(itertools.islice(box.specializations(), 0, None, max(1, box.cardinality // count)))
    return c, shape, specs


def resultant_cases(curve: str, n: int, Y: str, count: int = RESULTANT_POLYS) -> list[IntPolynomial]:
    """The members F of box_sample."""
    c, shape, specs = box_sample(curve, n, Y, count)
    return [build_family_member(c, shape, s) for s in specs]


def resultant_rows(backends, count: int = RESULTANT_POLYS):
    """(shape, degree, calls, microseconds per discriminant call: the PRS
    oracle, then the modular path on each backend) per RESULTANT_SHAPES
    entry; asserts that all give the same discriminants."""
    rows = []
    saved = _kernels.impl
    try:
        for name, curve, n, Y in RESULTANT_SHAPES:
            Fs = resultant_cases(curve, n, Y, count)
            calls = {"prs": lambda: [prs_discriminant(F) for F in Fs]}
            for backend in backends:
                def modular(backend=backend):
                    _kernels.impl = backend
                    return [discriminant(F) for F in Fs]
                calls[backend.BACKEND] = modular
            outs = [call() for call in calls.values()]
            assert all(out == outs[0] for out in outs), f"discriminants disagree on the {name} row"
            times = [min(timeit.repeat(call, number=1, repeat=3)) / len(Fs) * 1e6 for call in calls.values()]
            rows.append((name, n, len(Fs), times))
    finally:
        _kernels.impl = saved
    return rows


def records_rows(count: int = RESULTANT_POLYS):
    """(shape, degree, records, microseconds per record: F by the oracle's
    products, by family_coeffs; the prime walk one prime at a time, by
    gcd) per RESULTANT_SHAPES entry; asserts that each pair agrees."""
    rows = []
    saved = factor._GCD_PRIMES
    try:
        for name, curve, n, Y in RESULTANT_SHAPES:
            c, shape, specs = box_sample(curve, n, Y, count)
            f = c.f.coeffs
            bads = [F.lc * d for F in map(IntPolynomial, (family_coeffs(f, shape, s) for s in specs))
                    if (d := discriminant(F))]

            def walk(gcd_primes):
                factor._GCD_PRIMES = gcd_primes
                return [factor.primes_not_dividing(bad, CensusConfig().fingerprint_primes) for bad in bads]

            calls = {
                "oracle": lambda: [family_product(c, shape, s).coeffs for s in specs],
                "family_coeffs": lambda: [family_coeffs(f, shape, s) for s in specs],
                "walk": lambda: walk(0),
                "gcd": lambda: walk(saved),
            }
            outs = {key: call() for key, call in calls.items()}
            assert outs["oracle"] == outs["family_coeffs"], f"F differs on the {name} row"
            assert outs["walk"] == outs["gcd"], f"good primes differ on the {name} row"
            sizes = {"oracle": len(specs), "family_coeffs": len(specs), "walk": len(bads), "gcd": len(bads)}
            times = [min(timeit.repeat(call, number=1, repeat=5)) / sizes[key] * 1e6 for key, call in calls.items()]
            rows.append((name, n, len(specs), times))
    finally:
        factor._GCD_PRIMES = saved
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=20_000)
    args = ap.parse_args()

    rows = toolkit_rows()
    print(f"medians of {TIMINGS} timings")
    print(f"{'toolkit':<10}{'degree':>7}{'modulus':>9}{'schoolbook (us)':>17}{'packed (us)':>13}{'speedup':>9}"
          f"{'winner':>12}")
    for kind, d, name, school, packed in rows:
        ms, mp = statistics.median(school), statistics.median(packed)
        print(f"{kind:<10}{d:>7}{name:>9}{ms * 1e6:>17.1f}{mp * 1e6:>13.1f}{ms / mp:>8.2f}x"
              f"{winner(school, packed):>12}")
    lo, hi = crossover(rows)
    if lo == hi:
        found = f"degree {lo}"
    else:
        found = f"a degree from {lo} to {hi or f'past {TOOLKIT_DEGREES[-1]}'}, with unresolved rows between"
    inside = lo is not None and lo <= pure._PACK_MIN and (hi is None or pure._PACK_MIN <= hi)
    verdict = "matches" if inside else "DIFFERS from"
    print(f"\npacked and schoolbook outputs identical; packing wins every row from {found}, "
          f"which {verdict} pure._PACK_MIN = {pure._PACK_MIN}\n")

    compiled, why = load_compiled()
    backends = [pure] if compiled is None else [pure, compiled]
    print(f"{'splitting_types':<16}{'degrees':>9}{'primes':>8}{'pure (us/prime)':>17}{'c (us/prime)':>14}"
          f"{'marked':>8}")
    for name, degrees, count, times, marked in splitting_rows(backends):
        span = f"{degrees[0]}-{degrees[-1]}" if len(degrees) > 1 else str(degrees[0])
        c_time = f"{times[1]:>14.2f}" if compiled else f"{'n/a':>14}"
        print(f"{name:<16}{span:>9}{count:>8}{times[0]:>17.2f}{c_time}{marked:>8.0%}")
    print()

    print(f"{'discriminant':<14}{'degree':>7}{'calls':>7}{'prs (us)':>10}{'pure (us)':>11}{'c (us)':>9}")
    for name, n, calls, times in resultant_rows(backends):
        c_time = f"{times[2]:>9.1f}" if compiled else f"{'n/a':>9}"
        print(f"{name:<14}{n:>7}{calls:>7}{times[0]:>10.1f}{times[1]:>11.1f}{c_time}")
    print()

    print(f"{'records':<10}{'degree':>7}{'records':>9}{'oracle F (us)':>15}{'family_coeffs (us)':>20}"
          f"{'walk (us)':>11}{'gcd walk (us)':>15}")
    for name, n, records, times in records_rows():
        print(f"{name:<10}{n:>7}{records:>9}" + "".join(f"{t:>{w}.2f}" for t, w in zip(times, (15, 20, 11, 15))))
    print("F and good primes identical on both sides of each row\n")

    cases = workload(args.trials)
    pure_out, pure_times = run(pure, cases)
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
    print(f"\n{args.trials} one-prime cases, {args.trials // 25} polynomials at their good primes "
          f"among the first {len(POOL)}; "
          "outputs identical across backends")


if __name__ == "__main__":
    main()
