import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfield.errors import BadPrime, ZeroPolynomial
from hyperfield.factor import factor_over_q
from hyperfield.intpoly import IntPolynomial
from hyperfield.newton import (
    FactorBlock,
    Segment,
    factorization_shape,
    newton_polygon,
    valuation,
)
from oracles import cycle_from_polygon, np_product_check

P = IntPolynomial


class TestValuation:
    def test_zero_is_infinity(self):
        assert valuation(0, 5) == math.inf

    def test_multiplicative(self):
        rng = random.Random(0)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7])
            a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
            assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)

    def test_fractions(self):
        assert valuation(Fraction(5, 25), 5) == -1
        assert valuation(Fraction(-50, 3), 5) == 2

    @pytest.mark.parametrize("p", [1, 0, 4, -3, 15])
    def test_non_prime_is_bad_prime(self, p):
        with pytest.raises(BadPrime):
            valuation(6, p)
        with pytest.raises(BadPrime):
            newton_polygon(P((6, 0, 1)), p)


class TestPolygon:
    def test_eisenstein_quadratic(self):
        np_ = newton_polygon(P((-5, 0, 1)), 5)
        assert np_.vertices == ((0, 1), (2, 0))
        assert np_.segments == (Segment(2, Fraction(-1, 2)),)

    def test_collinear_single_segment(self):
        # points (0,2), (2,1), (4,0) at p=5 are collinear: one segment -1/2
        np_ = newton_polygon(P((25, 0, 5, 0, 1)), 5)
        assert np_.segments == (Segment(4, Fraction(-1, 2)),)

    def test_two_segments_shape(self):
        # (0,0) -> (3,2) -> (4,4)-ish profile forced by valuations
        f = P((1, 0, 0, 25, 0)) + P((0, 0, 0, 0, 5**4))
        np_ = newton_polygon(f, 5)
        assert [s.slope for s in np_.segments] == [Fraction(2, 3), Fraction(2, 1)]

    def test_zero_polynomial_raises(self):
        with pytest.raises(ZeroPolynomial):
            newton_polygon(P(()), 3)

    def test_x_power_stripped(self):
        np_ = newton_polygon(P((0, 0, 5, 1)), 5)
        assert np_.x_power == 2
        assert np_.segments == (Segment(1, Fraction(-1)),)

    @settings(max_examples=300)
    @given(
        st.lists(st.integers(min_value=-200, max_value=200), min_size=1, max_size=10),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_hull_validity(self, coeffs, q):
        p = P(coeffs)
        if p.is_zero():
            return
        np_ = newton_polygon(p, q)
        segs = np_.segments
        for s0, s1 in zip(segs, segs[1:]):
            assert s0.slope < s1.slope  # strictly increasing
        assert sum(s.length for s in segs) == p.degree - np_.x_power
        verts = np_.vertices
        for i, c in enumerate(p.coeffs):
            if c == 0:
                continue
            v = valuation(c, q)
            for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
                if x0 <= i <= x1:
                    assert Fraction(v) >= Fraction(y0) + Fraction(y1 - y0, x1 - x0) * (i - x0)
        for x, y in verts:
            assert valuation(p[x], q) == y  # vertices lie on the polygon


class TestFactorizationShape:
    def test_irreducible_block(self):
        np_ = newton_polygon(P((-5, 0, 0, 0, 1)), 5)  # slope -1/4, length 4
        blocks = factorization_shape(np_)
        assert blocks == [FactorBlock(4, 4)]
        assert blocks[0].divisor == blocks[0].length  # one irreducible Q_5-factor of degree 4

    def test_split_block(self):
        # slope -2/n, n even: factors divisible by n/2
        np_ = newton_polygon(P((25, 0, 5, 0, 1)), 5)
        assert factorization_shape(np_) == [FactorBlock(4, 2)]

    def test_slope_zero_no_constraint(self):
        np_ = newton_polygon(P((1, 1, 0, 1)), 5)
        assert factorization_shape(np_) == [FactorBlock(3, 1)]

    def test_consistent_with_rational_factorization(self):
        # Q-factor degrees must be expressible as sums of per-segment
        # contributions, each a multiple of that segment's divisor.
        rng = random.Random(1)
        checked = 0
        for _ in range(400):
            p = P([rng.randint(-40, 40) for _ in range(rng.randint(2, 6))] + [1])
            if p.degree < 2 or p[0] == 0:
                continue
            q_degrees = [f.degree for f in factor_over_q(p) if f.degree > 0]
            for q in (2, 3, 5):
                np_ = newton_polygon(p, q)
                blocks = factorization_shape(np_)
                assert _feasible(q_degrees, blocks), (p, q, q_degrees, blocks)
                checked += 1
        assert checked > 300


def _feasible(q_degrees, blocks):
    """Can each Q-factor be split across blocks, using multiples of each
    block's divisor, with block totals exact? Brute force at desk scale."""

    def rec(deg_idx, remaining):
        if deg_idx == len(q_degrees):
            return all(r == 0 for r in remaining)
        target = q_degrees[deg_idx]

        def assign(b_idx, left, acc):
            if left == 0:
                return rec(deg_idx + 1, acc)
            if b_idx == len(blocks):
                return False
            div = blocks[b_idx].divisor
            max_take = min(left, acc[b_idx])
            for take in range(0, max_take + 1, div):
                acc2 = list(acc)
                acc2[b_idx] -= take
                if assign(b_idx + 1, left - take, acc2):
                    return True
            return False

        return assign(0, target, list(remaining))

    return rec(0, [b.length for b in blocks])


class TestCycleCertificates:
    def test_tame_quadratic(self):
        certs = cycle_from_polygon(P((-5, 0, 1)), 5)
        assert len(certs) == 1
        c = certs[0]
        assert (c.cycle_length, c.slope) == (2, Fraction(-1, 2))

    def test_eisenstein_n_cycle(self):
        certs = cycle_from_polygon(P((-3, 0, 0, 0, 0, 1)), 3)
        assert [c.cycle_length for c in certs] == [5]

    def test_wild_excluded(self):
        assert cycle_from_polygon(P((-5, 0, 0, 0, 0, 1)), 5) == []

    def test_certificate_invariants(self):
        rng = random.Random(2)
        for _ in range(400):
            p = P([rng.randint(-100, 100) for _ in range(rng.randint(2, 8))] + [1])
            for q in (2, 3, 5):
                for c in cycle_from_polygon(p, q):
                    assert math.gcd(c.slope.numerator, c.cycle_length) == 1
                    assert math.gcd(c.cycle_length, q) == 1
                    assert c.slope.denominator == c.cycle_length


class TestProductRule:
    def test_examples(self):
        a, b = P((-5, 1)), P((-5, 1))
        assert np_product_check(a, b, 5)
        assert np_product_check(P((-5, 0, 1)), P((-1, 1)), 5)

    def test_random_products(self):
        rng = random.Random(3)
        for _ in range(1000)[:1000]:
            q = rng.choice([2, 3, 5])
            a = P([rng.randint(-60, 60) for _ in range(rng.randint(1, 6))] + [1])
            b = P([rng.randint(-60, 60) for _ in range(rng.randint(1, 6))] + [1])
            assert np_product_check(a, b, q)

    def test_non_monic_products(self):
        rng = random.Random(4)
        for _ in range(300):
            q = rng.choice([2, 3, 5, 7])
            a = P([rng.randint(-60, 60) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 40)])
            b = P([rng.randint(-60, 60) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 40)])
            assert np_product_check(a, b, q)


class TestJsonSchema:
    def test_stable_field_order(self):
        np_ = newton_polygon(P((-5, 0, 1)), 5)
        payload = np_.to_json()
        assert list(payload) == ["prime", "segments", "cycles"]
        assert payload["segments"] == [{"length": 2, "slope_num": -1, "slope_den": 2}]
        assert payload["cycles"] == [2]
        json.dumps(payload)  # serializable
