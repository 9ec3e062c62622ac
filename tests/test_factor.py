import functools
import operator
import os
import random
import shutil
from fractions import Fraction

import pytest
import sympy

from hyperfield import _kernels
from hyperfield._kernels import pure
from hyperfield.errors import BadPrime, DegreeCapExceeded
from hyperfield.factor import (
    factor_mod_p,
    factor_over_q,
    good_primes,
    is_irreducible,
    is_prime,
    rational_roots,
    squarefree_decomposition,
)
from hyperfield.intpoly import IntPolynomial

P = IntPolynomial
X = sympy.Symbol("x")


def to_sympy(p):
    return sympy.Poly(sum(c * X**i for i, c in enumerate(p.coeffs)), X)


def product(polys):
    return functools.reduce(operator.mul, polys, P((1,)))


class TestPrimes:
    def test_is_prime(self):
        assert [n for n in range(2, 40) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 + 1)

    def test_good_primes_skip_disc(self):
        # disc(x^2+1) = -4: p=2 skipped
        assert good_primes(P((1, 0, 1)), 3) == [3, 5, 7]


class TestFactorModP:
    def test_examples(self):
        assert factor_mod_p(P((1, 0, 1)), 5) == (1, 1)
        assert factor_mod_p(P((1, 0, 1)), 3) == (2,)
        assert factor_mod_p(P((1, 1, 0, 1)), 2) == (3,)

    def test_bad_prime(self):
        with pytest.raises(BadPrime):
            factor_mod_p(P((1, 0, 1)), 2)  # divides disc
        with pytest.raises(BadPrime):
            factor_mod_p(P((1, 0, 3)), 3)  # divides lc
        with pytest.raises(BadPrime):
            factor_mod_p(P((1, 0, 1)), 15)  # not prime

    def test_partition_sums_to_degree(self):
        rng = random.Random(0)
        for _ in range(500):
            p = P([rng.randint(-30, 30) for _ in range(rng.randint(2, 9))] + [1])
            if p.degree < 1:
                continue
            for q in good_primes(p, 3):
                part = factor_mod_p(p, q)
                assert sum(part) == p.degree
                assert part == tuple(sorted(part, reverse=True))

    def test_agrees_with_sympy(self):
        rng = random.Random(1)
        for _ in range(150):
            p = P([rng.randint(-20, 20) for _ in range(rng.randint(2, 7))] + [1])
            q = good_primes(p, 1)[0]
            mine = sorted(factor_mod_p(p, q))
            theirs = []
            for fac, mult in sympy.factor_list(sympy.Poly(to_sympy(p), X, modulus=q))[1]:
                theirs.extend([fac.degree(X)] * mult)
            assert mine == sorted(theirs)


class TestKernelParity:
    """pure.py and the compiled C kernel keep one contract: the same
    results, and the same ValueError messages, for every modulus."""

    # primes on both sides of 2^31 and below 2^62 and 2^63, composites,
    # and moduli below 2
    MODULI = [2, 3, 5, 7, 11, 101, 997, 65537, 2**31 - 1, 2**31 + 11, 2**62 - 57, 2**63 - 25, 4, 6, 9, 15, 1, 0, -7]

    @staticmethod
    def _compiled():
        if shutil.which("cc") is None or not os.path.exists(os.path.join(_kernels._INCLUDE, "Python.h")):
            pytest.skip("no C compiler on PATH or no Python headers")
        compiled = _kernels.load_compiled()
        assert compiled is not None, "a C compiler and Python.h exist but _speed.c did not compile or load"
        if not os.environ.get("HYPERFIELD_PURE"):
            assert _kernels.BACKEND == "c"
        return compiled

    @staticmethod
    def _outcome(kernel, *args):
        try:
            return kernel(*args)
        except ValueError as e:
            return ("ValueError", str(e))

    def _random_poly(self, rng, q):
        bits = rng.choice([6, 6, 70, 130])  # coefficients beyond 64 bits too
        f = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(0, 11))]
        return f + [rng.choice([1, 2, 3, -1, q])]

    def test_pure_matches_compiled(self):
        compiled = self._compiled()
        rng = random.Random(2)
        errors = set()
        for _ in range(1200):
            q = rng.choice(self.MODULI)
            f = self._random_poly(rng, q)
            a = self._outcome(pure.ddf_degrees, f, q)
            assert a == self._outcome(compiled.ddf_degrees, f, q), (f, q)
            if isinstance(a, tuple):
                errors.add(a[1])
            primes = rng.sample(self.MODULI, rng.randint(0, 4))
            assert self._outcome(pure.splitting_types, f, primes) == self._outcome(compiled.splitting_types, f, primes)
        assert errors == {
            "modulus must be a prime >= 2",
            "leading coefficient divisible by p",
            "constant polynomial mod p",
            "not squarefree mod p",
            "base is not invertible for the given modulus",
        }

    def test_moduli_from_2_63_go_to_pure(self):
        compiled = self._compiled()
        f = [5, -3, 0, 7, 1]
        for q in (2**63 + 29, 2**64 + 13):
            with pytest.raises(OverflowError):
                compiled.ddf_degrees(f, q)
            assert _kernels.ddf_degrees(f, q) == pure.ddf_degrees(f, q)
            assert _kernels.splitting_types(f, [3, q]) == pure.splitting_types(f, [3, q])

    def test_roots_mod_p(self):
        assert pure.roots_mod_p((1, 0, 1), 5) == [2, 3]
        assert pure.roots_mod_p((1, 0, 1), 3) == []
        # irreducible cubic mod 2; split quadratic mod 5
        assert pure.ddf_degrees((1, 1, 0, 1), 2) == [3]
        assert pure.ddf_degrees((1, 0, 1), 5) == [1, 1]


class TestYun:
    def test_multiplicities(self):
        f = P((-1, 1)) ** 3 * P((1, 1)) * P((1, 0, 1)) ** 2
        parts = squarefree_decomposition(f)
        got = {mult: g.coeffs for g, mult in parts}
        assert got[3] == (-1, 1)
        assert got[1] == (1, 1)
        assert got[2] == (1, 0, 1)


class TestFactorOverQ:
    def test_examples(self):
        fs = factor_over_q(P((-1, 0, 0, 0, 1)))
        assert sorted(f.coeffs for f in fs) == sorted([(-1, 1), (1, 1), (1, 0, 1)])
        fs = factor_over_q(P((1, 0, 0, 0, 1)))
        assert len(fs) == 1 and fs[0].coeffs == (1, 0, 0, 0, 1)
        fs = factor_over_q(P((1, -2, 1)))
        assert [f.coeffs for f in fs] == [(-1, 1), (-1, 1)]

    def test_degree_cap(self):
        with pytest.raises(DegreeCapExceeded):
            factor_over_q(P([1] * 14))

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(400):
            p = P([rng.randint(-40, 40) for _ in range(rng.randint(1, 8))] + [rng.choice([1, 2, -3, 5])])
            if p.is_zero():
                continue
            fs = factor_over_q(p)
            assert product(fs).coeffs == p.coeffs

    def test_round_trip_structured(self):
        rng = random.Random(4)
        for _ in range(250):
            a = P([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 4)])
            b = P([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 4)])
            p = a * b
            if p.degree < 1:
                continue
            fs = factor_over_q(p)
            assert product(fs).coeffs == p.coeffs
            assert all(f.degree < p.degree for f in fs)

    def test_agrees_with_sympy(self):
        rng = random.Random(5)
        for _ in range(100):
            p = P([rng.randint(-25, 25) for _ in range(rng.randint(2, 8))] + [rng.choice([1, 1, 2, -3])])
            if p.degree < 1:
                continue
            mine = sorted(f.degree for f in factor_over_q(p) if f.degree > 0)
            theirs = []
            for fac, mult in sympy.factor_list(to_sympy(p))[1]:
                theirs.extend([fac.degree(X)] * mult)
            assert mine == sorted(theirs), p

    def test_is_irreducible(self):
        assert is_irreducible(P((1, 0, 0, 0, 1)))
        assert not is_irreducible(P((-1, 0, 0, 0, 1)))
        assert not is_irreducible(P((7,)))

    def test_modular_resistant_quartics(self):
        # minimal polynomials of sqrt2+sqrt3 and sqrt2+sqrt5 split mod every
        # prime; irreducibility must come from subset recombination
        sd1 = P((1, 0, -10, 0, 1))
        sd2 = P((9, 0, -14, 0, 1))
        assert factor_over_q(sd1) == [sd1]
        assert factor_over_q(sd2) == [sd2]
        fs = factor_over_q(sd1 * sd2)
        assert sorted(f.degree for f in fs) == [4, 4]
        assert product(fs).coeffs == (sd1 * sd2).coeffs

    def test_cyclotomic_twelfth(self):
        c12 = P([-1] + [0] * 11 + [1])
        fs = factor_over_q(c12)
        assert sorted(f.degree for f in fs) == [1, 1, 2, 2, 2, 4]
        assert product(fs).coeffs == c12.coeffs


class TestRationalRoots:
    def test_examples(self):
        assert rational_roots(P((-6, 11, -6, 1))) == [1, 2, 3]
        p = P((2, -3, 1)) * P((1, 2))
        assert rational_roots(p) == [Fraction(-1, 2), 1, 2]
        assert rational_roots(P((1, 0, 1))) == []
        assert rational_roots(P((0, 0, 2, 1))) == [-2, 0]

    def test_random_planted(self):
        rng = random.Random(6)
        for _ in range(120):
            roots = sorted(
                {Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) for _ in range(rng.randint(1, 3))}
            )
            p = P((1,))
            for r in roots:
                p = p * P((-r.numerator, r.denominator))
            p = p * P((rng.randint(1, 5), rng.randint(1, 3), 1))  # usually no rational roots
            got = rational_roots(p)
            assert set(roots) <= set(got)
            for r in got:
                num = sum(c * r.numerator**i * r.denominator ** (p.degree - i) for i, c in enumerate(p.coeffs))
                assert num == 0


class TestFullCycleFrequency:
    def test_full_cycle_partition_appears_iff_full_cycle_in_group(self):
        # 100 random irreducibles (fixed seed, verified irreducible by the
        # rational factorization oracle): an {n} partition must show among
        # the first 200 good primes; x^4+1 (group V4) must never show one.
        rng = random.Random(7)
        found = 0
        tested = 0
        while tested < 100:
            deg = rng.randint(2, 6)
            p = P([rng.randint(-30, 30) for _ in range(deg)] + [1])
            if p.degree < 2 or not is_irreducible(p):
                continue
            tested += 1
            parts = {factor_mod_p(p, q) for q in good_primes(p, 200)}
            if (p.degree,) in parts:
                found += 1
        assert found == 100
        v4 = P((1, 0, 0, 0, 1))
        parts = {factor_mod_p(v4, q) for q in good_primes(v4, 200)}
        assert (4,) not in parts
