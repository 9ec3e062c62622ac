import functools
import math
import operator
import os
import random
import shutil
import time
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfield import _kernels, factor
from hyperfield._kernels import pure
from hyperfield.errors import BadPrime, ConstantPolynomial, DegreeCapExceeded, NotSquarefree
from hyperfield.factor import (
    factor_mod_p,
    factor_over_q,
    good_splitting_types,
    is_prime,
    lift_and_recombine,
    prime_factors,
    primes_not_dividing,
)
from hyperfield.intpoly import IntPolynomial, discriminant
from oracles import is_irreducible, prs_resultant

P = IntPolynomial
X = sympy.Symbol("x")


def to_sympy(p):
    return sympy.Poly(sum(c * X**i for i, c in enumerate(p.coeffs)), X)


def product(polys):
    return functools.reduce(operator.mul, polys, P((1,)))


def good_for(p, count, start=2):
    """The first `count` primes >= start not dividing lc(p) * Disc(p)."""
    return primes_not_dividing(p.lc * discriminant(p), count, start)


def sympy_factors(p):
    """sympy's factor_list of p: (content, sorted coefficient tuples of the
    irreducible factors with lc > 0, repeated by multiplicity)."""
    content, theirs = sympy.factor_list(to_sympy(p))
    want = []
    for fac, mult in theirs:
        coeffs = [int(c) for c in reversed(fac.all_coeffs())]
        if coeffs[-1] < 0:
            coeffs, content = [-c for c in coeffs], content * (-1) ** mult
        want.extend([tuple(coeffs)] * mult)
    return int(content), sorted(want)


class TestPrimes:
    def test_is_prime(self):
        assert [n for n in range(2, 40) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 + 1)

    def test_good_walk_skips_disc(self):
        # disc(x^2+1) = -4: p=2 skipped
        assert good_for(P((1, 0, 1)), 3) == [3, 5, 7]
        assert good_for(P((1, 0, 1)), 0) == []

    @staticmethod
    def _naive(bad, count, start):
        out, q = [], start
        while len(out) < count:
            if is_prime(q) and bad % q:
                out.append(q)
            q += 1
        return out

    @pytest.mark.parametrize("table", [None, [2], [2, 3, 5, 7, 11]])
    def test_walk_matches_naive(self, monkeypatch, table):
        # From the full table, and from short tables that every walk below
        # must grow, with start before, inside and past the table's end.
        if table is not None:
            monkeypatch.setattr(factor, "_PRIMES", list(table))
        rng = random.Random(len(table or ()))
        for _ in range(200):
            bad = rng.choice([1, -1]) * rng.randint(1, 10**12) * rng.choice([1, 6, 30, 210, 2310])
            count, start = rng.randint(0, 40), rng.choice([2, 3, rng.randint(2, 60), rng.randint(100, 400)])
            assert primes_not_dividing(bad, count, start) == self._naive(bad, count, start)
        assert factor._PRIMES == sorted(set(factor._PRIMES))
        assert all(is_prime(q) for q in factor._PRIMES)
        assert self._naive(1, len(factor._PRIMES), 2) == factor._PRIMES

    def test_gcd_walk_falls_back_where_the_first_primes_divide_bad(self):
        # bad is the product of all but a few of the first K primes (powers
        # of some of them, times a sign and a random cofactor): fewer than
        # `count` of those K survive, and the walk must go on past them.
        K = factor._GCD_PRIMES
        first = self._naive(1, K, 2)
        rng = random.Random(11)
        for _ in range(100):
            spared = rng.sample(first, rng.randint(0, 6))
            bad = math.prod(q ** rng.randint(1, 3) for q in first if q not in spared)
            bad *= rng.choice([1, -1]) * rng.choice([1, rng.randint(2, 10**9)])
            count = rng.choice([1, len(spared), len(spared) + 1, rng.randint(1, K), K, K + 1])
            assert primes_not_dividing(bad, count) == self._naive(bad, count, 2), (spared, count)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_gcd_walk_at_and_past_its_prime_count(self, extra):
        # count = K takes the gcd path when no first prime divides bad and
        # falls back when one does; count = K + 1 always falls back.
        K = factor._GCD_PRIMES
        count = K + extra
        *_, last, after, next_after = self._naive(1, K + 2, 2)
        rng = random.Random(extra)
        for bad in [1, -1, 2, 3 * last, after * next_after, *(rng.randint(1, 10**30) for _ in range(50))]:
            assert primes_not_dividing(bad, count) == self._naive(bad, count, 2), bad

    def test_walk_refuses_zero(self):
        with pytest.raises(ValueError):
            primes_not_dividing(0, 5)
        with pytest.raises(ValueError):
            good_for(P((0, 0, 1)), 3)  # x^2: Disc = 0


    def test_prime_factors_splits_a_composite_cofactor(self):
        # Both primes of the cofactor lie above 10^7, where trial division
        # alone used to stop and drop a composite cofactor.
        t0 = time.perf_counter()
        assert prime_factors(3 * 10000019 * 10000079) == ([3, 10000019, 10000079], 1)
        assert time.perf_counter() - t0 < 0.5

    def test_prime_factors_match_sympy(self):
        rng = random.Random(4)
        for _ in range(400):
            n = rng.choice([1, -1]) * rng.randint(1, 10 ** rng.randint(1, 15))
            assert prime_factors(n) == (sorted(sympy.factorint(abs(n))), 1), n
        assert prime_factors(1) == ([], 1)
        with pytest.raises(ValueError):
            prime_factors(0)
        assert prime_factors(-(1000003**2) * 999983**3 * 8) == ([2, 999983, 1000003], 1)

    def test_prime_factors_leave_what_rho_cannot_split(self):
        # Two Mersenne primes far above rho's reach: the cofactor is
        # returned unfactored, not taken for a prime.
        n = 7 * (2**61 - 1) * (2**89 - 1)
        assert prime_factors(n) == ([7], (2**61 - 1) * (2**89 - 1))


class TestGoodPrimeWalk:
    """The batched kernel marks with None each prime not dividing lc(F) at
    which F is not squarefree, and good_splitting_types walks past them."""

    @staticmethod
    def _kernels():
        compiled, _ = _kernels.load_compiled()
        return [pure, _kernels] + ([compiled] if compiled is not None else [])

    def test_none_exactly_where_the_prime_divides_disc(self):
        rng = random.Random(5)
        kernels = self._kernels()
        cases = 0
        for _ in range(300):
            a = P([rng.randint(-20, 20) for _ in range(rng.randint(1, 5))] + [rng.choice([1, 2, 3])])
            if rng.random() < 0.5:
                # a * (a + q * c): a square mod q, so q divides Disc.
                q = rng.choice([3, 5, 7, 11])
                F = a * (a + P([q * rng.randint(-3, 3) for _ in range(a.degree)]))
            else:
                F = a * P([rng.randint(-20, 20) for _ in range(rng.randint(1, 6))] + [1])
            if F.degree < 1:
                continue
            disc = discriminant(F)
            primes = primes_not_dividing(F.lc, 25)
            want = [None if disc % q == 0 else factor_mod_p(F, q) for q in primes]
            for kernel in kernels:
                got = kernel.splitting_types(list(F.coeffs), primes)
                assert [None if t is None else tuple(t) for t in got] == want, (kernel.BACKEND, F)
            cases += any(t is None for t in want)
        assert cases > 150

    def test_walk_equals_the_primes_not_dividing_lc_disc(self):
        rng = random.Random(6)
        checked = 0
        while checked < 500:
            F = P([rng.randint(-50, 50) for _ in range(rng.randint(2, 12))] + [rng.choice([1, 2, 3, 6, -4])])
            disc = discriminant(F)
            if disc == 0:
                continue
            count, start = rng.randint(0, 60), rng.choice([2, 3, 17])
            walk = good_splitting_types(F, count, start)
            assert [q for q, _ in walk] == primes_not_dividing(F.lc * disc, count, start), F
            assert all(t == factor_mod_p(F, q) for q, t in walk)
            checked += 1

    def test_walk_refuses_a_polynomial_that_is_not_squarefree(self):
        for F in (P((1, 0, 1)) * P((1, 0, 1)), P((-3, 1)) ** 3 * P((2, 1)), P((5, 1, 7)) * P((5, 1, 7)) * 6):
            with pytest.raises(ValueError, match="not squarefree") as refused:
                good_splitting_types(F, 10)
            assert isinstance(refused.value, NotSquarefree)
        with pytest.raises(ConstantPolynomial):
            good_splitting_types(P((5,)), 10)

    def test_walk_raises_exactly_where_disc_is_zero(self):
        # Mahler's bound makes the walk a complete squarefree decision: on
        # products a*b and a^2*b, some with coefficients past 2^64, it raises
        # NotSquarefree exactly where Disc(F) = 0.
        rng = random.Random(8)

        def factor_poly(size):
            return P([rng.randint(-size, size) for _ in range(rng.randint(1, 3))] + [rng.choice([1, 2, -3, size])])

        raised = kept = big = 0
        for _ in range(300):
            size = rng.choice([2, 2, 30, 2**70])
            a, b = factor_poly(size), factor_poly(size)
            F = a * a * b if rng.random() < 0.4 else a * b
            zero = discriminant(F) == 0
            try:
                good_splitting_types(F, 5, rng.choice([2, 3]))
            except NotSquarefree:
                assert zero, F
                raised += 1
            else:
                assert not zero, F
                kept += 1
            big += max(map(abs, F.coeffs)) > 2**64
        assert raised > 100 and kept > 100 and big > 50

    def test_squarefree_square_mod_small_primes_never_reaches_yun(self, monkeypatch):
        # F = a (a + 30030 c) is squarefree, yet a square mod every prime up
        # to 13, so no small prime proves it squarefree. The walk proves it
        # at larger primes, and the repeated-factor path, which starts with
        # gcd(F, F'), never runs.
        def no_gcd(a, b):
            raise AssertionError("poly_gcd called")

        monkeypatch.setattr(factor, "poly_gcd", no_gcd)
        rng = random.Random(9)
        checked = 0
        while checked < 200:
            a = P([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [1])
            c = P([rng.randint(-3, 3) for _ in range(a.degree)])
            F = a * (a + c * 30030)
            if discriminant(F) == 0:
                continue
            fs = factor_over_q(F)
            content, want = sympy_factors(F)
            assert sorted(f.coeffs for f in fs if f.degree > 0) == want, F
            assert product([f for f in fs if f.degree == 0]).coeffs == (content,)
            checked += 1

    def test_factor_over_q_keeps_a_repeated_factor(self):
        # (x^2 + 1)^2 (x - 3) is not squarefree mod any prime: Yun runs.
        F = P((1, 0, 1)) * P((1, 0, 1)) * P((-3, 1))
        assert factor_over_q(F) == [P((-3, 1)), P((1, 0, 1)), P((1, 0, 1))]


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
            for q in good_for(p, 3):
                part = factor_mod_p(p, q)
                assert sum(part) == p.degree
                assert part == tuple(sorted(part, reverse=True))

    def test_agrees_with_sympy(self):
        rng = random.Random(1)
        for _ in range(150):
            p = P([rng.randint(-20, 20) for _ in range(rng.randint(2, 7))] + [1])
            q = good_for(p, 1)[0]
            mine = sorted(factor_mod_p(p, q))
            theirs = []
            for fac, mult in sympy.factor_list(sympy.Poly(to_sympy(p), X, modulus=q))[1]:
                theirs.extend([fac.degree(X)] * mult)
            assert mine == sorted(theirs)


class TestKernelParity:
    """pure.py and the compiled C kernel keep one contract, for both
    kernels (splitting_types and resultants): the same results, and the
    same ValueError messages, for every modulus. Past the C kernel's
    bound, the compiled module raises OverflowError and the dispatcher in
    hyperfield._kernels answers from pure.py."""

    # primes on both sides of 2^31 and below 2^62 and 2^63, composites,
    # and moduli below 2
    MODULI = [2, 3, 5, 7, 11, 101, 997, 65537, 2**31 - 1, 2**31 + 11, 2**62 - 57, 2**63 - 25, 4, 6, 9, 15, 1, 0, -7]

    @staticmethod
    def _compiled_takes(q, coeffs):
        """Whether the compiled kernel takes modulus q >= 2 for coeffs of
        degree n: q <= 2^32 and n (q-1)^2 + (q-1) < 2^64 (lazy_fits in
        _speed.c)."""
        n = len(coeffs) - 1
        return q - 1 < 2**32 and n * (q - 1) ** 2 + (q - 1) < 2**64

    @staticmethod
    def _compiled():
        if shutil.which("cc") is None or not os.path.exists(os.path.join(_kernels._INCLUDE, "Python.h")):
            pytest.skip("no C compiler on PATH or no Python headers")
        compiled, why = _kernels.load_compiled()
        assert compiled is not None, f"a C compiler and Python.h exist but _speed.c did not compile or load: {why}"
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
        declined = 0
        for _ in range(1200):
            q = rng.choice(self.MODULI)
            f = self._random_poly(rng, q)
            a = self._outcome(pure.splitting_types, f, [q])
            if q < 2 or self._compiled_takes(q, f):
                assert a == self._outcome(compiled.splitting_types, f, [q]), (f, q)
            else:
                declined += 1
                with pytest.raises(OverflowError):
                    compiled.splitting_types(f, [q])
                assert a == self._outcome(_kernels.splitting_types, f, [q]), (f, q)
            if isinstance(a, tuple):
                errors.add(a[1])
            elif a == [None]:
                errors.add(None)  # marked: not squarefree mod q
            primes = rng.sample(self.MODULI, rng.randint(0, 4))
            takes = all(r < 2 or self._compiled_takes(r, f) for r in primes)
            kernel = compiled.splitting_types if takes else _kernels.splitting_types
            assert self._outcome(pure.splitting_types, f, primes) == self._outcome(kernel, f, primes)
        assert declined > 100
        assert errors == {
            "modulus must be a prime >= 2",
            "leading coefficient divisible by p",
            "constant polynomial mod p",
            None,
            "base is not invertible for the given modulus",
        }

    def test_resultants_match(self):
        # Res(a, b) mod every modulus of MODULI: the same residues, or the
        # same ValueError, on both backends; at a prime not dividing either
        # leading coefficient, the oracle's Res reduced mod that prime.
        compiled = self._compiled()
        rng = random.Random(4)
        errors = set()
        declined = 0
        for _ in range(1200):
            q = rng.choice(self.MODULI)
            a, b = self._random_poly(rng, q), self._random_poly(rng, q)
            if rng.random() < 0.02:
                a = []  # the zero polynomial: no leading coefficient
            longer = max(a, b, key=len)
            got = self._outcome(pure.resultants, a, b, [q])
            if q < 2 or self._compiled_takes(q, longer):
                assert got == self._outcome(compiled.resultants, a, b, [q]), (a, b, q)
            else:
                declined += 1
                with pytest.raises(OverflowError):
                    compiled.resultants(a, b, [q])
                assert got == self._outcome(_kernels.resultants, a, b, [q]), (a, b, q)
            if isinstance(got, tuple):
                errors.add(got[1])
            elif factor.is_prime(q):
                assert got == [prs_resultant(P(a), P(b)) % q], (a, b, q)
            primes = rng.sample(self.MODULI, rng.randint(0, 4))
            takes = all(r < 2 or self._compiled_takes(r, longer) for r in primes)
            kernel = compiled.resultants if takes else _kernels.resultants
            assert self._outcome(pure.resultants, a, b, primes) == self._outcome(kernel, a, b, primes)
        assert declined > 100
        assert errors == {
            "modulus must be a prime >= 2",
            "leading coefficient divisible by p",
            "base is not invertible for the given modulus",
        }

    def test_moduli_from_2_63_go_to_pure(self):
        compiled = self._compiled()
        f = [5, -3, 0, 7, 1]
        for q in (2**63 + 29, 2**64 + 13):
            with pytest.raises(OverflowError):
                compiled.splitting_types(f, [q])
            assert _kernels.splitting_types(f, [q]) == pure.splitting_types(f, [q])
            assert _kernels.splitting_types(f, [3, q]) == pure.splitting_types(f, [3, q])
            with pytest.raises(OverflowError):
                compiled.resultants(f, f[1:], [q])
            assert _kernels.resultants(f, f[1:], [3, q]) == pure.resultants(f, f[1:], [3, q])

    def test_ddf_degrees_raises_exactly_where_splitting_types_marks(self, monkeypatch):
        # _kernels.ddf_degrees is splitting_types at one prime, on either
        # backend, also past the C kernel's bound: ValueError where the
        # type is None, the same answer or the same error everywhere else.
        compiled, _ = _kernels.load_compiled()
        rng = random.Random(3)
        for impl in [pure] + ([compiled] if compiled is not None else []):
            monkeypatch.setattr(_kernels, "impl", impl)
            seen = set()
            for _ in range(300):
                q = rng.choice([2, 3, 5, 7, 101, 65537, 2**31 - 1, 2**63 + 29])
                a = P([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [1])
                b = P([rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [rng.choice([1, 2, q])])
                f = list((a * a * b if rng.random() < 0.3 else a * b).coeffs)
                kind = self._outcome(_kernels.splitting_types, f, [q])
                got = self._outcome(_kernels.ddf_degrees, f, q)
                if kind == [None]:
                    assert got == ("ValueError", "not squarefree mod p"), (impl.BACKEND, f, q)
                elif isinstance(kind, list):
                    assert got == kind[0], (impl.BACKEND, f, q)
                else:
                    assert got == kind, (impl.BACKEND, f, q)
                seen.add((q > 2**63, kind == [None], isinstance(kind, list)))
            # marked and typed cases on both sides of the bound, and errors
            assert {(big, True, True) for big in (False, True)} <= seen
            assert {(big, False, True) for big in (False, True)} <= seen
            assert (False, False, False) in seen

    def test_ddf_examples(self):
        # irreducible cubic mod 2; split quadratic mod 5
        assert pure.splitting_types((1, 1, 0, 1), [2]) == [[3]]
        assert pure.splitting_types((1, 0, 1), [5]) == [[1, 1]]


TOOLKIT_MODULI = [2, 3, 13, 2**31 - 1, 2**61 - 1, 13**23, 2**127 - 1]


def school_mul(a, b, m):
    """Schoolbook a * b mod m: the reference for the packed products."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return pure._trim([c % m for c in out])


def school_rem(a, f, m):
    """a mod (f, m) for monic f, by schoolbook long division."""
    r = [c % m for c in a]
    while len(r) >= len(f):
        top, shift = r.pop(), len(r) - (len(f) - 1)
        for i, c in enumerate(f[:-1]):
            r[shift + i] = (r[shift + i] - top * c) % m
    return pure._trim(r)


def school_pow(a, e, f, m):
    """a^e mod (f, m), left-to-right square and multiply."""
    out = school_rem([1], f, m)
    for bit in bin(e)[2:] if e else "":
        out = school_rem(school_mul(out, out, m), f, m)
        if bit == "1":
            out = school_rem(school_mul(out, a, m), f, m)
    return out


@st.composite
def toolkit_case(draw, max_len=80):
    """(m, a, b, f, pack_min): operands of length 0..max_len with coefficients
    in [-3m, 3m], a monic f reduced mod m, and _PACK_MIN as set (packing
    from degree 8) or 1 (every product of nonconstants packed)."""
    m = draw(st.sampled_from(TOOLKIT_MODULI))
    coeffs = st.lists(st.integers(-3 * m, 3 * m), max_size=max_len)
    f = [c % m for c in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=max_len))] + [1]
    return m, draw(coeffs), draw(coeffs), f, draw(st.sampled_from([pure._PACK_MIN, 1]))


class TestModToolkit:
    """The packed products of the mod-m toolkit equal schoolbook ones, on
    both sides of the crossover, for small, word-sized and big moduli."""

    @settings(max_examples=300, deadline=None)
    @given(toolkit_case())
    def test_mul_mod(self, case):
        m, a, b, _, pack_min = case
        with mock.patch.object(pure, "_PACK_MIN", pack_min):
            assert pure._mul_mod(a, b, m) == school_mul(a, b, m)
            assert pure._mul_mod(a, a, m) == school_mul(a, a, m)

    @settings(max_examples=150, deadline=None)
    @given(toolkit_case(), st.integers(0, 70))
    def test_pow_mod(self, case, e):
        m, a, _, f, pack_min = case
        with mock.patch.object(pure, "_PACK_MIN", pack_min):
            table = pure._power_table(f, m)
            assert (table is None) == (len(f) - 1 < pack_min)
            want = school_pow(a, e, f, m)
            assert pure._pow_mod(a, e, f, m, table) == want

    @settings(max_examples=300, deadline=None)
    @given(toolkit_case())
    def test_table_reduction(self, case):
        m, a, b, f, _ = case
        with mock.patch.object(pure, "_PACK_MIN", 1):
            table = pure._power_table(f, m)
        a, b = school_rem(a, f, m), school_rem(b, f, m)
        want = school_rem(school_mul(a, b, m), f, m)
        assert pure._mul_rem(a, b, table, m) == want
        assert pure._mul_rem(a, a, table, m) == school_rem(school_mul(a, a, m), f, m)


class TestYun:
    def test_multiplicities(self):
        f = P((-1, 1)) ** 3 * P((1, 1)) * P((1, 0, 1)) ** 2
        got = [g.coeffs for g in factor_over_q(f)]
        assert got == [(-1, 1)] * 3 + [(1, 1)] + [(1, 0, 1)] * 2


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

    def test_equals_sympy_factor_for_factor(self):
        # Seeded products of 2-4 factors up to degree 12: repeated and
        # equal-degree factors, non-monic factors and a content.
        rng = random.Random(8)
        for _ in range(60):
            parts = []
            for _ in range(rng.randint(2, 4)):
                deg = rng.randint(1, 4)
                f = P([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, 1, 2, 3, -5])])
                parts.extend([f] * rng.choice([1, 1, 2]))
                if rng.random() < 0.3:
                    parts.append(P([rng.randint(-9, 9) for _ in range(deg)] + [1]))  # same degree
            p = product(parts) * P((rng.choice([1, 1, -1, 6, -4]),))
            if p.degree > 12 or p.is_zero():
                continue
            fs = factor_over_q(p)
            content, want = sympy_factors(p)
            assert sorted(f.coeffs for f in fs if f.degree > 0) == want, p
            assert product([f for f in fs if f.degree == 0]).coeffs == (content,)

    def test_musser_degree_sets_prove_irreducibility_without_lifting(self, monkeypatch):
        # No splitting type of x^4 - 2x^3 + x^2 - x - 3 at its first six odd
        # good primes is (4), but every one has subset sums without 1 and 2
        # ((3,1) and (2,2) share only 0 and 4): irreducible, nothing lifted.
        quartic = P((-3, -1, 1, -2, 1))
        primes = good_for(quartic, 6, start=3)
        types = {factor_mod_p(quartic, q) for q in primes}
        assert (4,) not in types and {(3, 1), (2, 2)} <= types

        def no_lift(*args):
            raise AssertionError("hensel_lift_factors called")

        monkeypatch.setattr(factor, "hensel_lift_factors", no_lift)
        assert factor_over_q(quartic) == [quartic]
        with pytest.raises(AssertionError):
            factor_over_q(P((1, 0, -10, 0, 1)))  # splits mod every prime: must lift

    # Squarefree g with an irreducible factor that has a coefficient larger
    # than ||g||_2. The first 14 are every x^d + a x^i + c and
    # x^d + a x^i + b x^j + c with a, b, c in {-2, -1, 1, 2} and 3 <= d <= 12
    # that has one (a scan of all 15,120); the rest are products h * k found
    # by a seeded random search.
    BIG_FACTOR = [
        (-2, 0, 0, 0, -1, 2, 0, 1), (2, 0, 0, 0, 1, 2, 0, 1),
        (2, 0, 0, 0, 0, -1, 0, -2, 1), (2, 0, 0, 0, 0, 1, 0, 2, 1),
        (-1, 0, -2, 0, 0, 0, 0, 2, 0, 1), (1, 0, 2, 0, 0, 0, 0, 2, 0, 1),
        (2, 0, 0, 0, 0, -2, 0, -1, 0, 0, 1), (2, 0, 0, 0, 0, 2, 0, 1, 0, 0, 1),
        (-2, 0, -1, 0, 0, 0, 0, 2, 0, 0, 0, 1), (2, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 1),
        (-2, 0, 0, 0, 0, 1, 0, 0, 0, 0, -2, 1), (2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 1),
        (-2, 0, 0, 0, 0, 0, 0, 2, -1, 0, 0, 1), (2, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 1),
        (-2, -1, -1, -1, 1, 0, 1, 2, 1), (-2, -1, 0, 0, 0, 2, 0, -2, 1),
        (-2, 0, 0, -1, -2, -2, 1), (-2, 0, 0, 1, -2, 2, 1), (-2, 1, 1, 0, 2, 1, -1, -1, 1),
    ]

    def test_mignotte_modulus_exceeds_twice_the_degree_bound(self):
        rng = random.Random(12)
        for _ in range(300):
            g = P([rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 40))] + [rng.choice([1, 2, -3, 7])])
            degree = rng.randint(1, g.degree)
            q = rng.choice([3, 5, 13, 101, 65537])
            m = factor._mignotte_modulus(g, q, degree)
            twice_bound = 2 * math.comb(degree, degree // 2) * abs(g.lc)
            assert m * m > twice_bound**2 * sum(c * c for c in g.coeffs)  # m > 2 binom ||g||_2 |lc g|, exactly
            assert m // q <= twice_bound * (math.isqrt(sum(c * c for c in g.coeffs)) + 1)  # the least such power
            assert q ** round(math.log(m, q)) == m

    def test_factors_larger_than_the_norm_equal_sympy(self):
        # The factors over Q of the BIG_FACTOR cases and of seeded random
        # products equal sympy's, and enough cases have a factor with a
        # coefficient above ||g||_2 to exercise the degree-sized bound.
        rng = random.Random(13)
        corpus = [P(c) for c in self.BIG_FACTOR]
        while len(corpus) < 60:
            parts = [P([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.choice([1, 1, 2, -3])])
                     for _ in range(rng.randint(2, 3))]
            p = product(parts)
            if 1 <= p.degree <= 12:
                corpus.append(p)
        big = 0
        for p in corpus:
            content, want = sympy_factors(p)
            fs = factor_over_q(p)
            assert sorted(f.coeffs for f in fs if f.degree > 0) == want, p
            assert product([f for f in fs if f.degree == 0]).coeffs == (content,)
            norm2 = sum(c * c for c in p.primitive().coeffs)
            big += any(c * c > norm2 for f in want for c in f)
        assert big >= 19

    @pytest.mark.parametrize("coeffs, h", [
        ((-2, 0, 0, -1, -2, -2, 1), (-2, 4, -4, 1)),
        ((-2, -1, -1, -1, 1, 0, 1, 2, 1), (2, 3, 4, 3, 1)),
        ((-2, -1, 0, 0, 0, 2, 0, -2, 1), (2, -3, 4, -3, 1)),
        ((-2, 1, 1, 0, 2, 1, -1, -1, 1), (2, -3, 4, -3, 1)),
    ])
    def test_factor_above_the_norm_rebuilt_from_the_lift(self, coeffs, h):
        # Searching the degree of h alone, h (a coefficient above ||g||_2)
        # is rebuilt from the lifted factors, not left as the cofactor.
        g = P(coeffs)
        assert max(c * c for c in h) > sum(c * c for c in coeffs)
        found = lift_and_recombine(g, (len(h) - 1,))
        assert found[0].coeffs == h
        assert product(found).coeffs == g.coeffs

    def test_cyclotomic_twelfth(self):
        c12 = P([-1] + [0] * 11 + [1])
        fs = factor_over_q(c12)
        assert sorted(f.degree for f in fs) == [1, 1, 2, 2, 2, 4]
        assert product(fs).coeffs == c12.coeffs


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
            parts = {factor_mod_p(p, q) for q in good_for(p, 200)}
            if (p.degree,) in parts:
                found += 1
        assert found == 100
        v4 = P((1, 0, 0, 0, 1))
        parts = {factor_mod_p(v4, q) for q in good_for(v4, 200)}
        assert (4,) not in parts
