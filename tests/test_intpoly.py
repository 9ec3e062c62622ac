import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfield import _kernels, intpoly
from hyperfield._kernels import pure
from hyperfield.errors import ConstantPolynomial, PolyParseError, SearchExhausted, ZeroInput, ZeroScale
from hyperfield.intpoly import (
    RESULTANT_PRIMES,
    IntPolynomial,
    discriminant,
    format_poly,
    monicize,
    parse_poly,
    poly_gcd,
    resultant,
    scale_x,
    translate,
)
from oracles import prs_discriminant, prs_resultant

P = IntPolynomial


def _rat_rem(a, b):
    """Remainder of a by b over Q: schoolbook long division in Fractions."""
    r = [Fraction(c) for c in a]
    while len(r) >= len(b):
        t = r[-1] / b[-1]
        for i, c in enumerate(b):
            r[len(r) - len(b) + i] -= t * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def sylvester_resultant(a, b):
    """Independent oracle: Sylvester determinant by fraction-free elimination."""
    m, n = a.degree, b.degree
    N = m + n
    M = [[Fraction(0)] * N for _ in range(N)]
    for i in range(n):
        for j, c in enumerate(reversed(a.coeffs)):
            M[i][i + j] = Fraction(c)
    for i in range(m):
        for j, c in enumerate(reversed(b.coeffs)):
            M[n + i][i + j] = Fraction(c)
    det = Fraction(1)
    for col in range(N):
        piv = next((r for r in range(col, N) if M[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, N):
            if M[r][col]:
                f = M[r][col] * inv
                for c2 in range(col, N):
                    M[r][c2] -= f * M[col][c2]
    assert det.denominator == 1
    return int(det)


coeff = st.integers(min_value=-(2**63), max_value=2**63)
small_poly = st.lists(coeff, min_size=0, max_size=13).map(P)


class TestArithmetic:
    def test_square_binomial(self):
        assert P((1, 1)).square().coeffs == (1, 2, 1)

    def test_mul_absorbing_zero(self):
        assert (P((3, 0, 1)) * P(())).is_zero()

    def test_schoolbook_product(self):
        # (x^2+3)(2x-5) = 2x^3 - 5x^2 + 6x - 15
        assert (P((3, 0, 1)) * P((-5, 2))).coeffs == (-15, 6, -5, 2)

    @settings(max_examples=200)
    @given(small_poly, small_poly, small_poly)
    def test_ring_axioms(self, a, b, c):
        assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs

    def test_ring_axioms_bulk(self):
        rng = random.Random(0)
        for _ in range(10_000):
            a, b, c = (
                P([rng.randint(-(2**63), 2**63) for _ in range(rng.randint(0, 12))])
                for _ in range(3)
            )
            assert ((a + b) * c).coeffs == (a * c + b * c).coeffs

    def test_divmod_exact(self):
        a = P((-1, 0, 0, 1))
        q, r = a.divmod_exact(P((-1, 1)))
        assert q.coeffs == (1, 1, 1) and r.is_zero()

    def test_pseudo_rem_agrees_with_scaled_division(self):
        rng = random.Random(1)
        for _ in range(500):
            a = P([rng.randint(-9, 9) for _ in range(rng.randint(2, 7))])
            b = P([rng.randint(-9, 9) for _ in range(rng.randint(2, 7))])
            if a.degree < b.degree or b.degree < 1:
                continue
            delta = a.degree - b.degree
            lhs = a * (b.lc ** (delta + 1))
            prem = a.pseudo_rem(b)
            assert [Fraction(c) for c in prem.coeffs] == _rat_rem(lhs.coeffs, b.coeffs)


class TestValue:
    def test_not_iterable(self):
        # p[i] is 0 past the degree: iterating by __getitem__ would never stop.
        p = P((1, 2))
        with pytest.raises(TypeError):
            iter(p)
        with pytest.raises(TypeError):
            5 in p

    def test_equality_and_hash_follow_coefficients(self):
        assert P((1, 2, 0)) == P((1, 2)) and hash(P((1, 2, 0))) == hash(P((1, 2)))
        assert P((1, 2)) != P((1, 3))
        assert P((1, 2)) != (1, 2)


class TestChangeOfVariables:
    def test_translate_square(self):
        assert translate(P((0, 0, 1)), 1).coeffs == (1, 2, 1)

    def test_translate_identity(self):
        p = P((5, -3, 2, 7))
        assert translate(p, 0) is p

    def test_translate_cubic(self):
        # (x+2)^3 + (x+2) + 1 = x^3 + 6x^2 + 13x + 11
        assert translate(P((1, 1, 0, 1)), 2).coeffs == (11, 13, 6, 1)

    @settings(max_examples=200)
    @given(small_poly, st.integers(min_value=-50, max_value=50))
    def test_translate_inverse(self, p, k):
        assert translate(translate(p, k), -k).coeffs == p.coeffs

    def test_scale(self):
        assert scale_x(P((0, 1, 1)), 3).coeffs == (0, 3, 9)
        assert scale_x(P((1, 0, 0, 1)), 2).coeffs == (1, 0, 0, 8)
        p = P((4, 5, 6))
        assert scale_x(p, 1).coeffs == p.coeffs

    def test_scale_zero_raises(self):
        with pytest.raises(ZeroScale):
            scale_x(P((1, 1)), 0)

    def test_monicize(self):
        # c_d^(d-1) f(x/c_d): 4*f(x/2) for f = 2x^3+x+1 is x^3 + 2x + 4
        assert monicize(P((1, 1, 0, 2))).coeffs == (4, 2, 0, 1)
        assert monicize(P((-6, 3))).coeffs == (-6, 1)
        p = P((7, 0, 3, 1))
        assert monicize(p) is p

    def test_monicize_model_identity(self):
        # m = c^(d-1) f(x/c) means m(c*x) = c^(d-1) f(x), exactly.
        rng = random.Random(8)
        for _ in range(200):
            f = P([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.randint(2, 9)])
            m = monicize(f)
            assert m.lc == 1
            assert scale_x(m, f.lc).coeffs == (f * f.lc ** (f.degree - 1)).coeffs


class TestResultantDiscriminant:
    def test_convention_examples(self):
        assert resultant(P((-2, 1)), P((-3, 1))) == -1
        assert resultant(P((1, 0, 1)), P((1, 0, 1))) == 0
        assert resultant(P((-2, 0, 1)), P((-3, 0, 1))) == 1
        # swapped: (-1)^(1*1) * -1; degree 2 against 1: (-1)^2, so both orders agree
        assert resultant(P((-3, 1)), P((-2, 1))) == 1
        assert resultant(P((-2, 0, 1)), P((-3, 1))) == resultant(P((-3, 1)), P((-2, 0, 1))) == 7

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            resultant(P(()), P((1, 1)))
        with pytest.raises(ZeroInput):
            resultant(P((1, 1)), P(()))

    def test_against_sylvester(self):
        rng = random.Random(2)
        for _ in range(400):
            a = P([rng.randint(-20, 20) for _ in range(rng.randint(2, 7))])
            b = P([rng.randint(-20, 20) for _ in range(rng.randint(2, 7))])
            if a.degree < 1 or b.degree < 1:
                continue
            assert resultant(a, b) == sylvester_resultant(a, b)

    def test_against_sylvester_large_coefficients(self):
        rng = random.Random(20)
        for _ in range(60):
            a = P([rng.randint(-(10**6), 10**6) for _ in range(rng.randint(3, 9))])
            b = P([rng.randint(-(10**6), 10**6) for _ in range(rng.randint(3, 9))])
            if a.degree < 1 or b.degree < 1:
                continue
            assert resultant(a, b) == sylvester_resultant(a, b)

    def test_multiplicative_in_second_argument(self):
        rng = random.Random(21)
        for _ in range(200):
            a = P([rng.randint(-9, 9) for _ in range(3)] + [rng.randint(1, 5)])
            b = P([rng.randint(-9, 9) for _ in range(2)] + [rng.randint(1, 5)])
            c = P([rng.randint(-9, 9) for _ in range(2)] + [rng.randint(1, 5)])
            assert resultant(a, b * c) == resultant(a, b) * resultant(a, c)

    @pytest.mark.parametrize("height", [1, 50, 10**6, 10**20, 2**200], ids=["1", "50", "1e6", "1e20", "2^200"])
    def test_against_prs_oracle(self, height):
        # random degrees 0-12, on both sides of zero, every sign of lc
        rng = random.Random(height % 1000)
        for _ in range(150 if height < 2**100 else 30):
            a = P([rng.randint(-height, height) for _ in range(rng.randint(1, 13))])
            b = P([rng.randint(-height, height) for _ in range(rng.randint(1, 13))])
            if a.is_zero() or b.is_zero():
                continue
            assert resultant(a, b) == prs_resultant(a, b), (a, b)
            if a.degree >= 1:
                assert discriminant(a) == prs_discriminant(a), a

    def test_extreme_heights(self):
        # every coefficient at the height, where Hadamard's bound is nearly tight
        for height in (1, 2**27, 2**28 - 57, 2**63, 10**40):
            for d in (1, 2, 4, 6, 9):
                for signs in ((1,) * (d + 1), tuple((-1) ** i for i in range(d + 1))):
                    F = P(tuple(s * height for s in signs))
                    G = P(tuple(s * (height - 1 + i) for i, s in enumerate(signs)))
                    assert resultant(F, G) == prs_resultant(F, G), (height, d)
                    assert discriminant(G) == prs_discriminant(G), (height, d)

    def test_table_primes_dividing_lc_are_skipped(self):
        # lc(a) lc(b) divisible by the first table primes: those are skipped
        # (the kernel would refuse them) and the answer is still exact.
        rng = random.Random(22)
        lcs = (RESULTANT_PRIMES[0], RESULTANT_PRIMES[0] * RESULTANT_PRIMES[1], math.prod(RESULTANT_PRIMES[:5]))
        for lc in lcs:
            for _ in range(20):
                a = P([rng.randint(-99, 99) for _ in range(rng.randint(0, 6))] + [lc])
                b = P([rng.randint(-99, 99) for _ in range(rng.randint(0, 6))] + [rng.choice([1, -3, lc])])
                assert resultant(a, b) == prs_resultant(a, b), (a, b)
                if a.degree >= 1:
                    assert discriminant(a) == prs_discriminant(a), a

    def test_degree_zero_operand(self):
        # Res(c, b) = c^deg b, Res(a, c) = c^deg a, and 1 for two constants
        rng = random.Random(24)
        for _ in range(100):
            c = P((rng.choice([-1, 1]) * rng.randint(1, 10**30),))
            b = P([rng.randint(-99, 99) for _ in range(rng.randint(0, 8))] + [rng.randint(1, 9)])
            assert resultant(c, b) == prs_resultant(c, b) == c.lc**b.degree
            assert resultant(b, c) == prs_resultant(b, c) == c.lc**b.degree
        assert resultant(P((5,)), P((-7,))) == 1

    def test_constant_has_no_discriminant(self):
        with pytest.raises(ConstantPolynomial):
            discriminant(P((5,)))

    def test_prime_table(self):
        # prime, strictly descending, below 2^28, and within the C kernel's
        # delayed-reduction bound up to degree 255: 255 (p-1)^2 + (p-1) < 2^64
        assert all(sympy.isprime(p) for p in RESULTANT_PRIMES)
        assert all(p > q for p, q in zip(RESULTANT_PRIMES, RESULTANT_PRIMES[1:]))
        assert RESULTANT_PRIMES[0] < 2**28
        assert all(255 * (p - 1) ** 2 + (p - 1) < 2**64 for p in RESULTANT_PRIMES)

    def test_table_primes_stay_in_the_compiled_kernel_to_degree_255(self):
        compiled, _ = _kernels.load_compiled()
        if compiled is None:
            pytest.skip("no compiled kernel")
        rng = random.Random(25)
        a = [rng.randint(-(10**9), 10**9) for _ in range(255)] + [1]
        b = [rng.randint(-(10**9), 10**9) for _ in range(200)] + [3]
        ends = [RESULTANT_PRIMES[0], RESULTANT_PRIMES[-1]]
        assert compiled.resultants(a, b, ends) == pure.resultants(a, b, ends)
        longer = a + [1] * 45  # degree 300: past the bound, so pure.py answers
        with pytest.raises(OverflowError):
            compiled.resultants(longer, b, ends)
        assert _kernels.resultants(longer, b, ends) == pure.resultants(longer, b, ends)

    def test_bound_past_the_table_takes_primes_below_it(self, monkeypatch):
        # Hadamard's bound for this degree-20 discriminant needs about 150
        # primes of 27 bits: the table's 64, then the primes below it.
        rng = random.Random(26)
        F = P([rng.randint(-(2**100), 2**100) for _ in range(20)] + [2**100 + 1])
        drawn = []
        real = intpoly._resultant_primes

        def recording():
            for p in real():
                drawn.append(p)
                yield p

        monkeypatch.setattr(intpoly, "_resultant_primes", recording)
        assert discriminant(F) == prs_discriminant(F)
        assert len(drawn) > 2 * len(RESULTANT_PRIMES)
        below = drawn[len(RESULTANT_PRIMES):]
        assert all(sympy.isprime(p) for p in below) and below == sorted(below, reverse=True)
        assert below[0] == sympy.prevprime(RESULTANT_PRIMES[-1])

    def test_too_few_primes_raise_rather_than_answer(self, monkeypatch):
        # Were the primes exhausted before their product passed 2B, the
        # residue could be wrong: resultant raises SearchExhausted (exit 5)
        # instead.
        monkeypatch.setattr(intpoly, "_resultant_primes", lambda: iter(RESULTANT_PRIMES[:2]))
        F = P([10**6 + i for i in range(7)])
        with pytest.raises(SearchExhausted):
            discriminant(F)
        assert resultant(P((-2, 1)), P((-3, 1))) == -1  # one prime suffices here

    def test_discriminant_quadratic(self):
        # b^2 - 4c at (b, c) = (1, 1)
        assert discriminant(P((1, 1, 1))) == -3

    def test_discriminant_depressed_cubic(self):
        # -4p^3 - 27q^2
        rng = random.Random(3)
        for _ in range(100):
            p_, q_ = rng.randint(-50, 50), rng.randint(-50, 50)
            assert discriminant(P((q_, p_, 0, 1))) == -4 * p_**3 - 27 * q_**2

    def test_discriminant_repeated_factor(self):
        assert discriminant(P((1, -2, 1))) == 0
        assert discriminant(P((4, -4, 1)) * P((2, 1))) == 0
        # squares times linear factors, and Res of operands with a common factor
        rng = random.Random(23)
        for _ in range(200):
            g = P([rng.randint(-30, 30) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)])
            h = P([rng.randint(-30, 30), rng.randint(1, 9)])
            assert discriminant(g * g * h) == 0
            assert resultant(g * h, g * P((rng.randint(-9, 9), 1))) == 0

    def test_translation_invariance_monic(self):
        rng = random.Random(4)
        for _ in range(200):
            p = P([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))] + [1])
            k = rng.randint(-10, 10)
            assert discriminant(translate(p, k)) == discriminant(p)


class TestGcd:
    def test_gcd_basic(self):
        a = P((1, -2, 1))  # (x-1)^2
        b = P((-1, 0, 1))  # (x-1)(x+1)
        assert poly_gcd(a, b).coeffs == (-1, 1)

    def test_gcd_random_products(self):
        rng = random.Random(6)
        for _ in range(200):
            g = P([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1])
            a = g * P([rng.randint(-5, 5) for _ in range(2)] + [1])
            b = g * P([rng.randint(-5, 5) for _ in range(2)] + [1])
            got = poly_gcd(a, b)
            assert g.divides(a) and g.divides(b)
            assert got.divides(a) and got.divides(b)
            assert g.degree <= got.degree


class TestTextFormat:
    def test_round_trip(self):
        for text in ["1,1,0,1", "-5,0,1", "0,0,2", "", "7"]:
            assert format_poly(parse_poly(text)) == text.strip()

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            p = P([rng.randint(-(10**30), 10**30) for _ in range(rng.randint(0, 10))])
            assert parse_poly(format_poly(p)).coeffs == p.coeffs

    def test_parse_error(self):
        with pytest.raises(PolyParseError):
            parse_poly("1,x,3")
