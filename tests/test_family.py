import random
from fractions import Fraction

import pytest
import sympy

from hyperfield.census import CoefficientBox
from hyperfield.errors import (
    DegreeDrop,
    HypothesisViolated,
    InadmissiblePrime,
    NonCoprimeH,
    WitnessFailed,
)
from hyperfield.factor import factor_over_q
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
    apply_transform,
    build_family_member,
    check_admissible,
    find_admissible_prime,
    check_point_map,
    family_coeffs,
    normalize_even,
    select_bertrand_prime,
    verify_witness,
    witness,
)
from hyperfield.intpoly import IntPolynomial
from hyperfield.newton import valuation
from oracles import family_product, g_poly

P = IntPolynomial

C3 = HyperellipticCurve(P((1, 1, 0, 1)))       # y^2 = x^3 + x + 1
C5 = HyperellipticCurve(P((1, -1, 0, 0, 0, 1)))  # y^2 = x^5 - x + 1
C6 = HyperellipticCurve(P((3, 1, 0, 0, 0, 0, 1)))  # y^2 = x^6 + x + 3

X = sympy.Symbol("x")


def _sym(coeffs):
    return sum(c * X**i for i, c in enumerate(coeffs))


class TestCurve:
    def test_genus(self):
        assert C3.genus == 1 and C5.genus == 2 and C6.genus == 2

    def test_rejects_non_squarefree(self):
        with pytest.raises(HypothesisViolated):
            HyperellipticCurve(P((0, 0, 1, 0, 1)) * P((1, 1)))

    def test_rejects_low_degree(self):
        with pytest.raises(HypothesisViolated):
            HyperellipticCurve(P((1, 0, 1)))


class TestShapes:
    def test_degree_identity(self):
        for d, n in [(3, 4), (5, 7), (6, 8), (3, 3), (5, 6), (3, 6), (6, 10)]:
            sh = FamilyShape.proof_shape(d, n)
            assert max(2 * sh.d_g, d + 2 * sh.d_h) == n

    def test_census_monic_sides(self):
        assert FamilyShape.census_shape(3, 4).monic_g
        assert FamilyShape.census_shape(3, 5).monic_h
        assert FamilyShape.census_shape(6, 8).monic_g

    def test_hypotheses(self):
        with pytest.raises(HypothesisViolated):
            FamilyShape.proof_shape(6, 7)
        with pytest.raises(HypothesisViolated):
            FamilyShape.proof_shape(6, 6)
        with pytest.raises(HypothesisViolated):
            FamilyShape.proof_shape(5, 4)


class TestBuildMember:
    def test_census_n3_examples(self):
        sh = FamilyShape.census_shape(3, 3)
        assert (sh.a_len, sh.b_len) == (2, 0)
        F = build_family_member(C3, sh, Specialization((0, 0), ()))
        assert F.coeffs == (-1, -1, 0, -1)  # F = -f
        F = build_family_member(C3, sh, Specialization((0, 1), ()))
        assert F.coeffs == (-1, -1, 1, -1)

    def test_degree_drop(self):
        sh = FamilyShape.proof_shape(3, 4)
        with pytest.raises(DegreeDrop):
            build_family_member(C3, sh, Specialization((0, 0, 0), (1,)))

    def test_length_validation(self):
        sh = FamilyShape.proof_shape(3, 4)
        with pytest.raises(ValueError):
            build_family_member(C3, sh, Specialization((1, 2), (1,)))

    @pytest.mark.parametrize(
        "f, n, Y",
        [((1, 1, 0, 1), 4, 3), ((1, 1, 0, 1), 5, 2), ((1, 0, 0, 0, 1), 6, Fraction(3, 2))],
        ids=["ODD_D_EVEN_N", "ODD_D_ODD_N", "EVEN_D_EVEN_N"],
    )
    def test_every_box_member_matches_the_product_oracle(self, f, n, Y):
        curve = HyperellipticCurve(P(f))
        sh = FamilyShape.census_shape(curve.d, n)
        box = CoefficientBox.build(sh, Y)
        for s in box.specializations():
            want = family_product(curve, sh, s)
            assert family_coeffs(f, sh, s) == want.coeffs, s
            assert build_family_member(curve, sh, s) == want
        assert box.cardinality > 80

    def test_proof_shapes_match_the_oracle_and_drop_where_it_does(self):
        # Random proof-shape specs, some with huge coefficients, and with the
        # top coefficients often 0, so that F of degree below n shows up.
        rng = random.Random(3)
        kept = dropped = 0
        for curve, degrees in ((C3, (3, 4, 5, 6, 7)), (C5, (5, 6, 7, 8)), (C6, (8, 10))):
            for n in degrees:
                sh = FamilyShape.proof_shape(curve.d, n)
                for _ in range(40):
                    height = rng.choice([9, 10**20])

                    def coeff():
                        return rng.choice([0, rng.randint(-height, height)])

                    s = Specialization(tuple(coeff() for _ in range(sh.a_len)), tuple(coeff() for _ in range(sh.b_len)))
                    want = family_product(curve, sh, s)
                    if want.degree == n:
                        assert family_coeffs(curve.f.coeffs, sh, s) == want.coeffs, s
                        assert build_family_member(curve, sh, s) == want
                        kept += 1
                        continue
                    with pytest.raises(DegreeDrop):
                        family_coeffs(curve.f.coeffs, sh, s)
                    with pytest.raises(DegreeDrop, match=f"has degree {want.degree}, expected {n}"):
                        build_family_member(curve, sh, s)
                    dropped += 1
        assert kept > 150 and dropped > 150


class TestPointResidue:
    def test_zero_for_valid_members(self):
        # F - (g^2 - f h^2) is zero, with the right side expanded by sympy,
        # and the point map is refused exactly when sympy finds gcd(F, h) != 1.
        rng = random.Random(0)
        refused = 0
        for n in (4, 5):
            sh = FamilyShape.census_shape(3, n)
            for _ in range(100):
                s = Specialization(
                    tuple(rng.randint(-4, 4) for _ in range(sh.a_len)),
                    tuple(rng.choice([-2, -1, 1, 2]) for _ in range(sh.b_len)),
                )
                g, h = _sym(g_poly(s, sh).coeffs), _sym(s.h_poly(sh).coeffs)
                want = sympy.Poly(g**2 - _sym(C3.f.coeffs) * h**2, X)
                shared = sympy.degree(sympy.gcd(want.as_expr(), h), X) > 0
                try:
                    F = check_point_map(C3, sh, s)
                except NonCoprimeH:
                    assert shared, s
                    refused += 1
                    continue
                assert not shared, s
                assert list(F.coeffs) == [int(c) for c in reversed(want.all_coeffs())]
        assert refused > 0

    def test_noncoprime_raises(self):
        sh = FamilyShape.proof_shape(3, 5)
        with pytest.raises(NonCoprimeH):
            check_point_map(C3, sh, Specialization((0, 0, 1), (0, 1)))
        with pytest.raises(NonCoprimeH):  # h = 0: no point at all
            check_point_map(C3, FamilyShape.census_shape(3, 4), Specialization((1, 1), (0,)))


class TestBertrand:
    def test_examples(self):
        assert select_bertrand_prime(5) == 3
        assert select_bertrand_prime(9) == 5
        assert select_bertrand_prime(7) == 5

    def test_range_property(self):
        for n in range(5, 200, 2):
            q = select_bertrand_prime(n)
            assert (n - 1) / 2 < q < n - 1
            assert q > n / 2 and q % 2 == 1


class TestNormalizeEven:
    def test_x4_plus_1(self):
        curve, (k, p) = normalize_even(HyperellipticCurve(P((1, 0, 0, 0, 1))))
        assert (k, p) == (2, 17)  # f(1)=2 divides the discriminant, f(2)=17 works
        assert apply_transform(P((1, 0, 0, 0, 1)), k, p).coeffs == curve.f.coeffs

    def test_constant_term_prime(self):
        # f(0) = 3 prime, 3 coprime to disc: k = 0 accepted
        curve, (k, p) = normalize_even(C6)
        assert (k, p) == (0, 3)

    def test_normalized_valuations(self):
        for base, avoid in [(C6, ()), (C6, (3,)), (HyperellipticCurve(P((1, 0, 0, 0, 1))), ())]:
            curve, (k, p) = normalize_even(base, avoid=avoid)
            assert p not in avoid
            assert valuation(curve.f[0], p) == 1
            assert all(c % p == 0 for c in curve.f.coeffs[1:] if c)

    def test_round_trip(self):
        curve, (k, p) = normalize_even(C6, avoid=(3,))
        assert apply_transform(C6.f, k, p).coeffs == curve.f.coeffs


class TestTranslateForTransposition:
    def test_identity_when_already_good(self):
        from hyperfield.family import translate_for_transposition

        curve, k = translate_for_transposition(C3)
        assert k == 0 and curve is C3

    def test_clears_zero_constant_term(self):
        from hyperfield.family import translate_for_transposition
        from hyperfield.intpoly import translate

        base = HyperellipticCurve(P((0, -4, 0, 1)))  # c_0 = 0
        curve, k = translate_for_transposition(base)
        assert k > 0
        assert curve.f.coeffs == translate(base.f, k).coeffs
        assert curve.f[0] != 0
        assert curve.f[1] ** 2 - 4 * curve.f[0] * curve.f[2] != 0
        # and the transposition recipe then runs end to end
        sh = FamilyShape.proof_shape(3, 3)
        p = find_admissible_prime(curve, sh, Recipe(D3N3_TRANSP))
        s = witness(curve, sh, Recipe(D3N3_TRANSP), p, 0)
        verify_witness(curve, sh, Recipe(D3N3_TRANSP), s, p)


ODD_COMBOS = [
    (C3, 3, Recipe(ODD_ODD_NCYCLE)),
    (C3, 3, Recipe(D3N3_TRANSP)),
    (C3, 5, Recipe(ODD_ODD_NCYCLE)),
    (C3, 5, Recipe(ODD_ODD_QCYCLE)),
    (C3, 5, Recipe(K_CYCLE, 2)),
    (C3, 4, Recipe(ODD_EVEN_SPLIT)),
    (C3, 4, Recipe(ODD_EVEN_N1CYCLE)),
    (C3, 4, Recipe(ODD_EVEN_TRANSP)),
    (C5, 7, Recipe(ODD_ODD_NCYCLE)),
    (C5, 7, Recipe(ODD_ODD_QCYCLE)),
    (C5, 6, Recipe(ODD_EVEN_SPLIT)),
    (C5, 6, Recipe(ODD_EVEN_N1CYCLE)),
    (C5, 6, Recipe(ODD_EVEN_TRANSP)),
    (C5, 8, Recipe(K_CYCLE, 4)),
]


class TestWitnesses:
    @pytest.mark.parametrize("curve,n,recipe", ODD_COMBOS, ids=lambda v: getattr(v, "label", v))
    def test_odd_recipes_force_polygons(self, curve, n, recipe):
        sh = FamilyShape.proof_shape(curve.d, n)
        p = find_admissible_prime(curve, sh, recipe)
        for seed in range(8):
            s = witness(curve, sh, recipe, p, seed)
            np_, certs = verify_witness(curve, sh, recipe, s, p)

    @pytest.mark.parametrize("kind", [EVEN_NCYCLE, EVEN_N2CYCLE])
    def test_even_recipes(self, kind):
        curve, (k, p) = normalize_even(C6, avoid=(2, 3))
        sh = FamilyShape.proof_shape(6, 8)
        for seed in range(8):
            s = witness(curve, sh, Recipe(kind), p, seed)
            np_, certs = verify_witness(curve, sh, Recipe(kind), s, p)
            want = 8 if kind == EVEN_NCYCLE else 6
            assert any(c.cycle_length == want for c in certs)

    def test_witness_deterministic(self):
        sh = FamilyShape.proof_shape(3, 5)
        r = Recipe(ODD_ODD_QCYCLE)
        p = find_admissible_prime(C3, sh, r)
        assert witness(C3, sh, r, p, 42) == witness(C3, sh, r, p, 42)
        assert witness(C3, sh, r, p, 42) != witness(C3, sh, r, p, 43)

    def test_split_predicts_factor_shape(self):
        sh = FamilyShape.proof_shape(3, 4)
        r = Recipe(ODD_EVEN_SPLIT)
        p = find_admissible_prime(C3, sh, r)
        s = witness(C3, sh, r, p, 0)
        np_, _ = verify_witness(C3, sh, r, s, p)
        assert len(np_.segments) == 1
        seg = np_.segments[0]
        assert (seg.length, seg.slope) == (4, Fraction(-1, 2))

    def test_wrong_specialization_fails(self):
        sh = FamilyShape.proof_shape(3, 5)
        r = Recipe(ODD_ODD_NCYCLE)
        p = find_admissible_prime(C3, sh, r)
        bad = Specialization((1, 1, 1), (1, 1))  # no forced valuations
        with pytest.raises(WitnessFailed):
            verify_witness(C3, sh, r, bad, p)

    def test_inadmissible_prime_messages(self):
        sh = FamilyShape.proof_shape(3, 4)
        with pytest.raises(InadmissiblePrime, match="odd"):
            check_admissible(C3, sh, Recipe(ODD_EVEN_SPLIT), 2)
        # p = 3 divides no coefficient of f = x^3+x+1, but c_0 = 1 is a QR;
        # use f with c_0 a non-residue to hit the QR message
        curve = HyperellipticCurve(P((2, 1, 0, 1)))
        with pytest.raises(InadmissiblePrime, match="residue"):
            check_admissible(curve, sh, Recipe(ODD_EVEN_TRANSP), 3)
        coef5 = HyperellipticCurve(P((1, 5, 0, 1)))
        with pytest.raises(InadmissiblePrime, match="divides coefficient"):
            check_admissible(coef5, FamilyShape.proof_shape(3, 5), Recipe(ODD_ODD_NCYCLE), 5)
        with pytest.raises(InadmissiblePrime, match="not p-normalized"):
            check_admissible(C6, FamilyShape.proof_shape(6, 8), Recipe(EVEN_NCYCLE), 7)

    def test_recipe_shape_mismatch(self):
        sh = FamilyShape.proof_shape(3, 4)
        with pytest.raises(HypothesisViolated):
            check_admissible(C3, sh, Recipe(ODD_ODD_NCYCLE), 5)
        with pytest.raises(HypothesisViolated):
            check_admissible(C3, FamilyShape.census_shape(3, 4), Recipe(ODD_EVEN_SPLIT), 5)

    def test_fuzz_recipes_on_random_curves(self):
        from hyperfield.errors import SearchExhausted

        rng = random.Random(123)
        runs = 0
        for _ in range(120):
            d = rng.choice([3, 3, 5, 4, 6])
            f = P([rng.randint(-9, 9) for _ in range(d)] + [rng.choice([1, -1, 2, 3])])
            if f.degree != d:
                continue
            try:
                curve = HyperellipticCurve(f)
            except HypothesisViolated:
                continue
            if d % 2:
                n = rng.randrange(d, d + 5)
                recipes = (
                    [Recipe(ODD_EVEN_SPLIT), Recipe(ODD_EVEN_N1CYCLE), Recipe(ODD_EVEN_TRANSP)]
                    if n % 2 == 0
                    else [Recipe(ODD_ODD_NCYCLE)] + ([Recipe(ODD_ODD_QCYCLE)] if n > 3 else [])
                )
                shape = FamilyShape.proof_shape(d, n)
                for recipe in recipes + [Recipe(K_CYCLE, k) for k in range(2, n // 2 + 1)]:
                    try:
                        p = find_admissible_prime(curve, shape, recipe, bound=500)
                    except InadmissiblePrime:
                        continue
                    s = witness(curve, shape, recipe, p, rng.randrange(1000))
                    verify_witness(curve, shape, recipe, s, p)
                    runs += 1
            else:
                n = rng.choice([d + 2, d + 4])
                shape = FamilyShape.proof_shape(d, n)
                avoid = tuple(q for q in (2, 3, 5, 7, 11, 13) if (n * (n - 2)) % q == 0)
                try:
                    model, (_, p) = normalize_even(curve, avoid=avoid)
                except SearchExhausted:
                    continue
                for kind in (EVEN_NCYCLE, EVEN_N2CYCLE):
                    s = witness(model, shape, Recipe(kind), p, rng.randrange(1000))
                    verify_witness(model, shape, Recipe(kind), s, p)
                    runs += 1
        assert runs > 200

    def test_ncycle_witnesses_are_irreducible(self):
        # A full-length segment with coprime reduced slope certifies
        # irreducibility; the rational factorization oracle must agree.
        sh = FamilyShape.proof_shape(3, 5)
        r = Recipe(ODD_ODD_NCYCLE)
        p = find_admissible_prime(C3, sh, r)
        for seed in range(10):
            s = witness(C3, sh, r, p, seed)
            F = build_family_member(C3, sh, s)
            assert len([f for f in factor_over_q(F) if f.degree > 0]) == 1
