"""End-to-end certificate pipeline on the three reference curves."""
import math
import random

from hyperfield import _kernels as kernels
from hyperfield.census import CoefficientBox
from hyperfield.factor import factor_over_q, primes_not_dividing
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
    Specialization,
    build_family_member,
    find_admissible_prime,
    normalize_even,
    verify_witness,
    witness,
)
from hyperfield.intpoly import IntPolynomial, discriminant
from hyperfield.newton import cycle_from_polygon, newton_polygon
from hyperfield.perms import SN, canonical_of_type, group_order, recognize_sn

P = IntPolynomial
C3 = HyperellipticCurve(P((1, 1, 0, 1)))
C5 = HyperellipticCurve(P((1, -1, 0, 0, 0, 1)))
C6 = HyperellipticCurve(P((3, 1, 0, 0, 0, 0, 1)))

# Recipes that assemble each parity case's S_n evidence.
CASE_RECIPES = {
    (3, 3): [Recipe(ODD_ODD_NCYCLE), Recipe(D3N3_TRANSP)],
    (3, 4): [Recipe(ODD_EVEN_SPLIT), Recipe(ODD_EVEN_N1CYCLE), Recipe(ODD_EVEN_TRANSP)],
    (3, 5): [Recipe(ODD_ODD_NCYCLE), Recipe(ODD_ODD_QCYCLE), Recipe(K_CYCLE, 2)],
    (5, 5): [Recipe(ODD_ODD_NCYCLE), Recipe(ODD_ODD_QCYCLE), Recipe(K_CYCLE, 2)],
    (5, 6): [Recipe(ODD_EVEN_SPLIT), Recipe(ODD_EVEN_N1CYCLE), Recipe(ODD_EVEN_TRANSP)],
    (6, 8): [Recipe(EVEN_NCYCLE), Recipe(EVEN_N2CYCLE), Recipe(K_CYCLE, 3), Recipe(K_CYCLE, 2)],
}
CURVES = {3: C3, 5: C5, 6: C6}


def _recipe_evidence(curve, n, recipes, seed=0):
    """Cycle types certified by each recipe's verified witness."""
    evidence = []
    for recipe in recipes:
        if recipe.kind in (EVEN_NCYCLE, EVEN_N2CYCLE):
            avoid = tuple(q for q in (2, 3, 5, 7) if (n * (n - 2)) % q == 0)
            model, (_, p) = normalize_even(curve, avoid=avoid)
        else:
            model = curve
            p = find_admissible_prime(model, FamilyShape.proof_shape(curve.d, n), recipe)
        shape = FamilyShape.proof_shape(curve.d, n)
        s = witness(model, shape, recipe, p, seed)
        _, certs = verify_witness(model, shape, recipe, s, p)
        for c in certs:
            t = tuple(sorted([c.cycle_length] + [1] * (n - c.cycle_length), reverse=True))
            evidence.append((t, f"{recipe.label} p={p}"))
    return evidence


class TestRecipeAssembly:
    def test_each_case_recognizes_sn(self):
        for (d, n), recipes in CASE_RECIPES.items():
            evidence = _recipe_evidence(CURVES[d], n, recipes)
            cert = recognize_sn(n, evidence, transitive=True)
            assert cert.conclusion == SN, (d, n, evidence, cert.rule)

    def test_s5_evidence_contents(self):
        ev = _recipe_evidence(C3, 5, CASE_RECIPES[(3, 5)])
        lengths = {t[0] for t, _ in ev}
        assert {5, 3, 2} <= lengths  # n-cycle, Bertrand q-cycle, transposition


def _random_specs(curve, n, Y, count, rng):
    shape = FamilyShape.census_shape(curve.d, n)
    box = CoefficientBox.build(shape, Y)
    bound_of = {(side, j): b for side, j, b in box.bounds}
    out = []
    while len(out) < count:
        a = [0] * shape.a_len
        b = [0] * shape.b_len
        for (side, j), bd in bound_of.items():
            (a if side == "a" else b)[j] = rng.randint(-bd, bd)
        s = Specialization(tuple(a), tuple(b))
        if s.h_poly(shape).is_zero():
            continue
        out.append(s)
    return shape, out


class TestEmpiricalHilbert:
    def test_frobenius_closure_is_sn_on_95_percent(self):
        # Canonical placements of sampled Frobenius types generate the full
        # symmetric group for >= 95% of 200 pointed box specializations.
        cases = [(C3, 3, 24), (C3, 4, 8), (C3, 5, 8), (C5, 5, 8), (C5, 6, 6), (C6, 8, 4)]
        for curve, n, Y in cases:
            rng = random.Random(0)
            shape, specs = _random_specs(curve, n, Y, 200, rng)
            ok = 0
            for s in specs:
                F = build_family_member(curve, shape, s)
                disc = discriminant(F)
                if disc == 0:
                    continue
                types = {tuple(kernels.ddf_degrees(F.coeffs, p)) for p in primes_not_dividing(F.lc * disc, 60)}
                gens = [canonical_of_type(t, n) for t in types]
                if group_order(gens, cap=16) == math.factorial(n):
                    ok += 1
            assert ok >= 0.95 * 200, (curve.d, n, Y, ok)


class TestIrreducibilityCrossCheck:
    def test_polygon_certified_members_factor_irreducible(self):
        # A full-length coprime-slope segment (n-cycle style certificate)
        # must agree with the rational factorization oracle.
        confirmed = 0
        for (d, n), recipes in CASE_RECIPES.items():
            if n > 8:
                continue
            curve = CURVES[d]
            for recipe in recipes:
                if recipe.kind not in (ODD_ODD_NCYCLE, EVEN_NCYCLE):
                    continue
                if recipe.kind == EVEN_NCYCLE:
                    model, (_, p) = normalize_even(curve, avoid=(2, 3))
                else:
                    model = curve
                    p = find_admissible_prime(model, FamilyShape.proof_shape(d, n), recipe)
                shape = FamilyShape.proof_shape(d, n)
                for seed in range(10):
                    s = witness(model, shape, recipe, p, seed)
                    F = build_family_member(model, shape, s)
                    np_ = newton_polygon(F, p)
                    segs = np_.segments
                    assert len(segs) == 1 and segs[0].slope.denominator == n
                    assert len([f for f in factor_over_q(F) if f.degree > 0]) == 1
                    confirmed += 1
        assert confirmed >= 30

    def test_random_eisenstein_certificates_confirmed(self):
        rng = random.Random(1)
        confirmed = 0
        while confirmed < 25:
            n = rng.randint(2, 8)
            q = rng.choice([3, 5, 7])
            # Eisenstein-style: v_q(c_0) = 1, q | middle, q coprime to lead
            coeffs = [q * rng.choice([1, 2, 3])] + [q * rng.randint(-3, 3) for _ in range(n - 1)] + [
                rng.choice([1, 2])
            ]
            F = P(coeffs)
            if F.degree != n or math.gcd(F.lc, q) != 1:
                continue
            certs = cycle_from_polygon(F, q)
            if not any(c.cycle_length == n for c in certs):
                continue
            assert len([f for f in factor_over_q(F) if f.degree > 0]) == 1
            confirmed += 1
