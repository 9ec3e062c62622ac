"""Acceptance suite: one test per criterion, one pass line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import sympy

from hyperfield.census import (
    REDUCIBLE,
    CoefficientBox,
    c_n_positive,
    ev_threshold_search,
    exponents,
    root_bound_box,
    run_census,
)
from hyperfield.errors import NonCoprimeH
from hyperfield.factor import discriminant, factor_mod_p, factor_over_q, primes_not_dividing
from hyperfield.family import (
    D3N3_TRANSP,
    EVEN_N2CYCLE,
    EVEN_NCYCLE,
    K_CYCLE,
    ODD_EVEN_N1CYCLE,
    ODD_EVEN_SPLIT,
    ODD_EVEN_TRANSP,
    ODD_ODD_NCYCLE,
    ODD_ODD_QCYCLE,
    FamilyShape,
    HyperellipticCurve,
    Recipe,
    build_family_member,
    check_point_map,
    find_admissible_prime,
    normalize_even,
    verify_witness,
    witness,
)
from hyperfield.intpoly import IntPolynomial, poly_gcd
from oracles import closure, compose, cycle_from_polygon, from_cycles, group_order, is_transitive, np_product_check

P = IntPolynomial
C3 = HyperellipticCurve(P((1, 1, 0, 1)))        # d = 3
C5 = HyperellipticCurve(P((1, -1, 0, 0, 0, 1)))  # d = 5
C6 = HyperellipticCurve(P((3, 1, 0, 0, 0, 0, 1)))  # d = 6

SEEDS = range(50)


def test_criterion_1_ev_threshold_reproduction():
    for g, want in [(1, 16052), (10, 16061), (100, 16342)]:
        t0 = time.perf_counter()
        got = ev_threshold_search(g)
        dt = time.perf_counter() - t0
        assert got == want, f"g={g}: got {got}, want {want}"
        assert dt < 300, f"g={g} took {dt:.1f}s (budget 300s)"
    print("ACCEPTANCE 1 (EV thresholds 16052/16061/16342): PASS")


def _odd_combos():
    for curve, ns in [(C3, (3, 4, 5, 6)), (C5, (5, 6, 7, 8))]:
        for n in ns:
            if n % 2:
                yield curve, n, Recipe(ODD_ODD_NCYCLE)
                if n > 3:
                    yield curve, n, Recipe(ODD_ODD_QCYCLE)
                if n == 3 and curve.d == 3:
                    yield curve, n, Recipe(D3N3_TRANSP)
            else:
                yield curve, n, Recipe(ODD_EVEN_SPLIT)
                yield curve, n, Recipe(ODD_EVEN_N1CYCLE)
                yield curve, n, Recipe(ODD_EVEN_TRANSP)
            for k in range(2, n // 2 + 1):
                yield curve, n, Recipe(K_CYCLE, k)


def test_criterion_2_recipe_polygon_conformance():
    combos = 0
    runs = 0
    for curve, n, recipe in _odd_combos():
        shape = FamilyShape.proof_shape(curve.d, n)
        p = find_admissible_prime(curve, shape, recipe)
        for seed in SEEDS:
            s = witness(curve, shape, recipe, p, seed)
            verify_witness(curve, shape, recipe, s, p)  # raises on any miss
            runs += 1
        combos += 1
    for n in (8, 10):
        avoid = tuple(q for q in (2, 3, 5, 7, 11, 13) if (n * (n - 2)) % q == 0)
        norm, (_, p) = normalize_even(C6, avoid=avoid)
        shape = FamilyShape.proof_shape(6, n)
        for kind in (EVEN_NCYCLE, EVEN_N2CYCLE):
            for seed in SEEDS:
                s = witness(norm, shape, Recipe(kind), p, seed)
                verify_witness(norm, shape, Recipe(kind), s, p)
                runs += 1
            combos += 1
        for k in range(2, n // 2 + 1):
            recipe = Recipe(K_CYCLE, k)
            pk = find_admissible_prime(C6, shape, recipe)
            for seed in SEEDS:
                s = witness(C6, shape, recipe, pk, seed)
                verify_witness(C6, shape, recipe, s, pk)
                runs += 1
            combos += 1
    assert combos >= 30 and runs == combos * 50
    print(f"ACCEPTANCE 2 (recipe-polygon conformance, {combos} combos x 50 seeds, 100%): PASS")


def _transposition_placements(n):
    for i, j in itertools.combinations(range(n), 2):
        yield from_cycles(n, [(i, j)])


def test_criterion_3_group_recognition_brute_force():
    t0 = time.perf_counter()
    checked = 0
    # Prop gen_sets: transposition + cycle of length n-1 or prime > n/2.
    for n in range(4, 9):
        lengths = {n - 1} | {c for c in range(n // 2 + 1, n + 1) if _is_prime(c)}
        for c in sorted(lengths):
            sigma = from_cycles(n, [tuple(range(c))])
            for tau in _transposition_placements(n):
                if not is_transitive([sigma, tau]):
                    continue
                assert group_order([sigma, tau]) == math.factorial(n), (n, c, tau)
                checked += 1
    # Prop gen_set_even: transposition + 3-cycle + (n-2)-cycle.
    for n in range(4, 9):
        sigma = from_cycles(n, [tuple(range(n - 2))])
        three_cycles = [
            from_cycles(n, [(a, b, c)])
            for a, b, c in itertools.permutations(range(n), 3)
            if a == min(a, b, c)
        ]
        for mu in three_cycles:
            for tau in _transposition_placements(n):
                if not is_transitive([sigma, mu, tau]):
                    continue
                assert group_order([sigma, mu, tau]) == math.factorial(n), (n, mu, tau)
                checked += 1
    # Lifting property: every transitive G containing a point-stabilized
    # S_k with k > n/2 must be all of S_n.
    for n in range(4, 9):
        for k in range(n // 2 + 1, n):
            h_gens = [from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(range(k))])]
            h_set = closure(h_gens)
            seen = set()
            for sigma in itertools.permutations(range(n)):
                if sigma in seen:
                    continue
                seen.update(compose(h, sigma) for h in h_set)  # whole coset H*sigma
                gens = h_gens + [sigma]
                if not is_transitive(gens):
                    continue
                assert group_order(gens) == math.factorial(n), (n, k, sigma)
                checked += 1
    dt = time.perf_counter() - t0
    assert dt < 600, f"took {dt:.1f}s (budget 600s)"
    print(f"ACCEPTANCE 3 (group recognition brute force, {checked} placements, {dt:.1f}s): PASS")


def _is_prime(c):
    return c > 1 and all(c % d for d in range(2, int(c**0.5) + 1))


def test_criterion_4_newton_polygon_oracle_equivalence():
    rng = random.Random(41)
    for q in (2, 3, 5, 7):
        for _ in range(1000):
            a = P([rng.randint(-60, 60) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 30)])
            b = P([rng.randint(-60, 60) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 30)])
            assert np_product_check(a, b, q)
    # Cycle certificates at degree <= 6, confirmed by Frobenius sampling.
    corpus = []
    for curve, n, recipe in _odd_combos():
        if n > 6:
            continue
        shape = FamilyShape.proof_shape(curve.d, n)
        p = find_admissible_prime(curve, shape, recipe)
        for seed in range(3):
            s = witness(curve, shape, recipe, p, seed)
            F = build_family_member(curve, shape, s)
            for cert in cycle_from_polygon(F, p):
                corpus.append((F, cert.cycle_length))
    while len(corpus) < 80:
        F = P([rng.randint(-40, 40) for _ in range(rng.randint(2, 6))] + [1])
        if F.degree < 2 or discriminant(F) == 0:
            continue
        for q in (2, 3, 5, 7, 11):
            for cert in cycle_from_polygon(F, q):
                corpus.append((F, cert.cycle_length))
    confirmed = 0
    for F, l in corpus:
        # A certificate can sit on a non-squarefree F (the repeated factor
        # lies outside the primitive segment); Frobenius acts on the
        # radical, which generates the same splitting field.
        if discriminant(F) == 0:
            F, _ = F.divmod_exact(poly_gcd(F, F.derivative()))
        parts = (factor_mod_p(F, q) for q in primes_not_dividing(F.lc * discriminant(F), 500))
        assert any(l in part for part in parts), (F, l)
        confirmed += 1
    print(
        f"ACCEPTANCE 4 (polygon product oracle 4x1000; {confirmed} certificates "
        f"Frobenius-confirmed within 500 primes): PASS"
    )


def _sym_poly(coeffs, x):
    return sympy.Poly(list(reversed(coeffs)) or [0], x)


def test_criterion_5_algebraic_point_identity():
    # Each CSV row's F must equal g^2 - f h^2 expanded by sympy from the
    # row's own spec columns, and the point map must be defined
    # (Res(F, h) != 0) on every member that is not reducible.
    x = sympy.Symbol("x")
    checked = 0
    for curve, n, Y in [(C3, 3, 4), (C3, 4, 4), (C3, 5, 2), (C5, 5, 1)]:
        res = run_census(curve, n, Y)
        f = _sym_poly(curve.f.coeffs, x)
        for r, line in zip(res.records, res.csv_lines):
            spec_a, spec_b, F_text = line.split(";")[:3]
            g = [int(c) for c in spec_a.split(",") if c] + ([1] if res.shape.monic_g else [])
            h = [int(c) for c in spec_b.split(",") if c] + ([1] if res.shape.monic_h else [])
            F = _sym_poly(g, x) ** 2 - f * _sym_poly(h, x) ** 2
            assert F_text == ",".join(str(int(c)) for c in reversed(F.all_coeffs())), line
            if r.no_point:
                continue
            try:
                check_point_map(curve, res.shape, r.spec)
            except NonCoprimeH:
                assert r.status == REDUCIBLE  # shared factor of F and h
                continue
            checked += 1
    assert checked > 1000
    print(f"ACCEPTANCE 5 (CSV F = g^2 - f h^2 from spec, point map defined on {checked} members): PASS")


def test_criterion_6_empirical_hilbert_irreducibility():
    proportions = []
    for Y in (2, 4, 8):
        res = run_census(C3, 4, Y)
        pointed = [r for r in res.records if not r.no_point]
        red = sum(r.status == REDUCIBLE for r in pointed)
        proportions.append((Y, Fraction(red, len(pointed))))
    values = [p for _, p in proportions]
    assert values[0] >= values[1] >= values[2], proportions
    assert values[2] <= Fraction(1, 10), proportions
    pretty = ", ".join(f"Y={y}: {p} ({float(p):.4f})" for y, p in proportions)
    print(f"ACCEPTANCE 6 (empirical Hilbert irreducibility; reducible proportions {pretty}): PASS")


def test_criterion_7_counting_diagnostics():
    # (a) exact box cardinalities for 20 (shape, Y) pairs
    pairs = [
        (d, n, Y)
        for d, n in [(3, 3), (3, 4), (3, 5), (5, 5), (5, 6)]
        for Y in (1, 2, Fraction(5, 2), 3)
    ]
    assert len(pairs) == 20
    for d, n, Y in pairs:
        box = CoefficientBox.build(FamilyShape.census_shape(d, n), Y)
        assert sum(1 for _ in box.specializations()) == box.cardinality
    # (b) distinct field-class counts weakly increasing in Y
    classes = [run_census(C3, 3, Y).summary["classes"] for Y in (2, 3, 4, 6, 8)]
    assert classes == sorted(classes)
    # (c) (g,h) max multiplicity constant across the sweep
    mults = set()
    for Y in (2, 4, 8):
        res = run_census(C3, 4, Y)
        groups = {}
        for r in res.records:
            groups.setdefault(r.F.coeffs, []).append(r)
        assert res.summary["max_multiplicity"] == max(map(len, groups.values()))
        mults.add(res.summary["max_multiplicity"])
    assert len(mults) == 1
    # (d) Fujiwara bound dominates 10^4 numerically computed root moduli
    rng = random.Random(7)
    for _ in range(10_000):
        deg = rng.randint(1, 8)
        F = P([rng.randint(-100, 100) for _ in range(deg)] + [1])
        bound, _ = root_bound_box(F)
        roots = np.roots(list(reversed(F.coeffs)))
        assert max(abs(r) for r in roots) <= float(bound) * (1 + 1e-12) + 1e-9
    # (e) exponent formulas
    for g in (1, 2, 3):
        for d in (2 * g + 1, 2 * g + 2):
            start = max(d if d % 2 else d + 2, 20)
            for n in range(start, 1001):
                if d % 2 == 0 and n % 2:
                    continue
                rep = exponents(g, d, n)
                assert rep.c_n < Fraction(1, 4)
                assert rep.c_n_improved > rep.c_n
    assert all(c_n_positive(4, 9, n) for n in range(9, 10**6 + 1))
    assert all(c_n_positive(2, 6, n) for n in range(8, 10**6 + 1, 2))
    print("ACCEPTANCE 7 (box cardinalities, class monotonicity, multiplicity, Fujiwara x10^4, exponents): PASS")


def test_criterion_8_exact_arithmetic_regression():
    import functools
    import operator

    rng = random.Random(8)
    done = 0
    while done < 1000:
        deg = rng.randint(1, 8)
        p = P([rng.randint(-50, 50) for _ in range(deg)] + [rng.choice([1, 2, -3, 5, 7])])
        if p.degree < 1:
            continue
        fs = factor_over_q(p)
        prod = functools.reduce(operator.mul, fs, P((1,)))
        assert prod.coeffs == p.coeffs
        done += 1
    for _ in range(100):
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        assert discriminant(P((b, a, 0, 1))) == -4 * a**3 - 27 * b**2
    print("ACCEPTANCE 8 (factorization round-trips x1000; depressed-cubic discriminants x100): PASS")
