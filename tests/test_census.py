import copy
import hashlib
import itertools
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
import sympy

from hyperfield import census, factor, intpoly
from hyperfield.census import (
    IRREDUCIBLE_UNCERTIFIED,
    REDUCIBLE,
    SN_CERTIFIED,
    CensusConfig,
    CoefficientBox,
    box_disc_bound,
    c_n_positive,
    ev_threshold_search,
    exponents,
    floor_pow,
    introot,
    isomorphic_exact,
    root_bound_box,
    run_census,
)
from hyperfield.errors import BoxTooLarge, DegreeCapExceeded, HypothesisViolated, NonMonic, SearchExhausted
from hyperfield.factor import factor_mod_p
from hyperfield.family import (
    EVEN_D_EVEN_N,
    ODD_D_EVEN_N,
    ODD_D_ODD_N,
    FamilyShape,
    HyperellipticCurve,
    Specialization,
    build_family_member,
)
from hyperfield.intpoly import IntPolynomial, discriminant, scale_x, translate
from hyperfield.perms import recognize_sn
from oracles import compatible, is_irreducible

P = IntPolynomial
C3 = HyperellipticCurve(P((1, 1, 0, 1)))
C5 = HyperellipticCurve(P((1, -1, 0, 0, 0, 1)))
C6 = HyperellipticCurve(P((3, 1, 0, 0, 0, 0, 1)))
QUARTIC = HyperellipticCurve(P((1, 0, 0, 0, 1)))  # even: x -> -x maps each box onto itself
X, Yv = sympy.symbols("x y")


def _sym(coeffs, var=X):
    return sum(c * var**i for i, c in enumerate(coeffs))


def mirror(F):
    """The coefficients of F(-x), for the coefficient tuple of F."""
    return scale_x(P(F), -1).coeffs


class Row(NamedTuple):
    """One CSV row of a census, parsed."""

    spec: Specialization
    F: tuple[int, ...]
    disc_F: int
    status: str
    hash_hex: str
    class_id: int | None


def rows(res):
    """The CSV rows of a census, in order, parsed into Rows."""

    def ints(text):
        return tuple(int(c) for c in text.split(",") if c)

    out = []
    for line in res.csv_lines:
        a, b, F, disc_F, status, hash_hex, class_id = line.split(";")
        spec = Specialization(ints(a), ints(b))
        out.append(Row(spec, ints(F), int(disc_F), status, hash_hex, int(class_id) if class_id else None))
    return out


def sampled(F, count=50):
    """The fingerprint of F at its first `count` good primes."""
    return census.FieldFingerprint(F.degree, tuple(factor.good_splitting_types(F, count)))


def multi_F_classes(res):
    """The field classes of a census that hold several distinct F, each as a sorted list."""
    classes = {}
    for r in rows(res):
        if r.class_id is not None:
            classes.setdefault(r.class_id, set()).add(r.F)
    return [sorted(g) for g in classes.values() if len(g) > 1]


def f_from_spec(curve, shape, csv_line):
    """g^2 - f*h^2 expanded by sympy from a CSV row's spec_a and spec_b
    columns, in the CSV's F_coeffs format."""
    spec_a, spec_b = csv_line.split(";")[:2]
    g = [int(c) for c in spec_a.split(",") if c] + ([1] if shape.monic_g else [])
    h = [int(c) for c in spec_b.split(",") if c] + ([1] if shape.monic_h else [])
    F = sympy.Poly(_sym(g) ** 2 - _sym(curve.f.coeffs) * _sym(h) ** 2, X)
    return ",".join(str(int(c)) for c in reversed(F.all_coeffs()))


class TestFloorPow:
    def test_integer_exponents(self):
        assert floor_pow(Fraction(2), Fraction(3)) == 8
        assert floor_pow(Fraction(5, 2), Fraction(2)) == 6
        assert floor_pow(Fraction(7), Fraction(0)) == 1

    def test_half_exponents(self):
        assert floor_pow(Fraction(8), Fraction(1, 2)) == 2
        assert floor_pow(Fraction(8), Fraction(3, 2)) == 22
        assert floor_pow(Fraction(9, 4), Fraction(1, 2)) == 1

    def test_against_float(self):
        rng = random.Random(0)
        for _ in range(500):
            y = Fraction(rng.randint(1, 40), rng.randint(1, 7))
            if y < 1:
                continue
            e = Fraction(rng.randint(0, 9), rng.choice([1, 2]))
            exact = floor_pow(y, e)
            approx = float(y) ** float(e)
            assert exact <= approx < exact + 1.000001

    def test_introot(self):
        rng = random.Random(1)
        for _ in range(500):
            x = rng.randint(0, 10**30)
            k = rng.randint(1, 7)
            r = introot(x, k)
            assert r**k <= x < (r + 1) ** k


class TestBox:
    def test_n3_paper_bounds(self):
        box = CoefficientBox.build(FamilyShape.census_shape(3, 3), 2)
        assert box.bounds == (("a", 1, 1), ("a", 0, 2))
        assert box.cardinality == 15

    def test_n4_bounds(self):
        box = CoefficientBox.build(FamilyShape.census_shape(3, 4), 8)
        assert box.bounds == (("a", 1, 8), ("a", 0, 64), ("b", 0, 2))
        assert box.cardinality == 17 * 129 * 5

    def test_even_shape_bounds(self):
        box = CoefficientBox.build(FamilyShape.census_shape(6, 8), 2)
        # d_g = 4, d_h = 0: a_3..a_0 at Y^1..Y^4, no b (h constant b_0? no:
        # d_h = (8-6)/2 - 1 = 0 so b has the single free coefficient b_0 at Y^1)
        assert dict(((s, j), b) for s, j, b in box.bounds) == {
            ("a", 3): 2,
            ("a", 2): 4,
            ("a", 1): 8,
            ("a", 0): 16,
            ("b", 0): 2,
        }

    def test_cardinality_matches_enumeration_20_pairs(self):
        pairs = []
        for d, n in [(3, 3), (3, 4), (3, 5), (5, 5), (5, 6)]:
            for Y in (1, 2, Fraction(5, 2), 3):
                pairs.append((d, n, Y))
        assert len(pairs) == 20
        for d, n, Y in pairs:
            sh = FamilyShape.census_shape(d, n)
            box = CoefficientBox.build(sh, Y)
            count = sum(1 for _ in box.specializations())
            assert count == box.cardinality, (d, n, Y)

    def test_enumeration_order(self):
        box = CoefficientBox.build(FamilyShape.census_shape(3, 4), 1)
        specs = list(box.specializations())
        assert len(specs) == 27
        assert specs[0].a == (-1, -1) and specs[0].b == (-1,)
        assert specs[-1].a == (1, 1) and specs[-1].b == (1,)
        # most-significant first: a_1 varies slowest
        assert [s.a[1] for s in specs[:9]] == [-1] * 9

    def test_y_below_one_rejected(self):
        with pytest.raises(HypothesisViolated):
            CoefficientBox.build(FamilyShape.census_shape(3, 4), Fraction(1, 2))

    @staticmethod
    def _slot_specializations(box):
        """The odometer with each value written to the (side, j) slot its
        bound names: the reference for specializations()."""
        slots = [(side, j) for side, j, _ in box.bounds]
        for values in itertools.product(*(range(-b, b + 1) for _, _, b in box.bounds)):
            a, b = [0] * box.shape.a_len, [0] * box.shape.b_len
            for (side, j), v in zip(slots, values):
                (a if side == "a" else b)[j] = v
            yield Specialization(tuple(a), tuple(b))

    @pytest.mark.parametrize(
        "case, boxes",
        [
            (ODD_D_EVEN_N, [(3, 4, 3), (3, 6, 2)]),
            (ODD_D_ODD_N, [(3, 3, 3), (3, 5, 3), (3, 7, 1)]),  # (d, n) = (3, 3) has no b
            (EVEN_D_EVEN_N, [(4, 6, 2), (4, 8, 1)]),
        ],
    )
    def test_specializations_match_slot_assignment(self, case, boxes):
        """(d, n, Y) boxes of each parity case, with one, two and (odd n)
        no free b coefficients."""
        for d, n, Y in boxes:
            shape = FamilyShape.census_shape(d, n)
            assert shape.case == case
            box = CoefficientBox.build(shape, Y)
            assert list(box.specializations()) == list(self._slot_specializations(box)), (d, n, Y)


class TestEnumerateBox:
    def test_statuses_and_cap(self):
        classified = {}
        records = rows(run_census(C3, 3, 2, CensusConfig(), classified))
        assert len(records) == 15
        assert {r.status for r in records} <= {REDUCIBLE, IRREDUCIBLE_UNCERTIFIED, SN_CERTIFIED}
        # zero specialization gives F = -f, irreducible with group S3
        zero = [r for r in records if r.spec.a == (0, 0)][0]
        assert zero.F == (-1, -1, 0, -1)
        assert zero.status == SN_CERTIFIED
        fp = classified[zero.F].fingerprint
        assert fp is not None and len(fp.entries) == 50
        assert recognize_sn(3, [(t, "") for _, t in fp.entries]).conclusion == "SN"
        with pytest.raises(BoxTooLarge):
            run_census(C3, 3, 2, CensusConfig(box_cap=10))

    def test_disc_attached(self):
        for r in rows(run_census(C3, 3, 2)):
            if r.status != REDUCIBLE:
                assert r.disc_F == discriminant(P(r.F)) != 0

    def test_h_zero_flagged(self):
        res = run_census(C3, 4, 2)
        flagged = [r for r in rows(res) if r.spec.h_poly(res.shape).is_zero()]
        assert flagged and all(r.status == REDUCIBLE for r in flagged)
        assert all(r.spec.b == (0,) for r in flagged)
        assert res.summary["diagnostics"]["h_zero_members"] == len(flagged)


class TestIrreducibilityScreen:
    def test_factor_over_q_only_where_the_screen_fails(self, monkeypatch):
        """On --curve 1,1,0,1 --n 4 --Y 7/2, census.factor_over_q runs once
        for each distinct F among exactly the records with h != 0 and
        Disc F != 0 whose splitting types at the first five good primes
        leave a factor degree in 1..n/2 (subset sums, recomputed here)."""
        n, Y = 4, Fraction(7, 2)
        shape = FamilyShape.census_shape(C3.d, n)
        real, called = census.factor_over_q, []

        def counting(F, cap):
            called.append(F.coeffs)
            return real(F, cap=cap)

        monkeypatch.setattr(census, "factor_over_q", counting)
        run_census(C3, n, Y)

        def subset_sums(t):
            return {sum(c) for r in range(len(t) + 1) for c in itertools.combinations(t, r)}

        expected, wider_screen_only = [], 0
        for s in CoefficientBox.build(shape, Y).specializations():
            F = build_family_member(C3, shape, s)
            disc = discriminant(F)
            if s.h_poly(shape).is_zero() or disc == 0:
                continue
            types = [factor_mod_p(F, q) for q in factor.primes_not_dividing(F.lc * disc, 5)]
            left = set(range(1, n // 2 + 1)).intersection(*map(subset_sums, types))
            if left:
                expected.append(F.coeffs)
            elif (n,) not in types:
                wider_screen_only += 1  # no full cycle: a full-cycle screen would factor F
        assert called == list(dict.fromkeys(expected))  # the first record with each F
        assert wider_screen_only > 0

    @pytest.mark.parametrize(
        "curve, n, Y, lines, digest",
        [
            (C3, 4, Fraction(7, 2), 525, "e643596d6508be4ca66f43870f9c15c6d9019ea190a8fbc1dd5821513e974f9e"),
            (QUARTIC, 6, Fraction(5, 4), 81, "abedafdcc2bcfc2d80fda41260b71d74ab1fb7500bdf3bcd8e739e328b6d37c2"),
        ],
    )
    def test_census_computes_no_newton_polygon(self, monkeypatch, curve, n, Y, lines, digest):
        """The census-cubic-n4 and census-quartic-iso boxes give the CSV
        lines recorded when a Newton polygon stage ran between the screen and
        Zassenhaus (SHA-256 of the lines joined by newlines), and no census
        step computes a polygon."""

        def refuse(*args):
            raise AssertionError("the census computed a Newton polygon")

        monkeypatch.setattr(census, "newton_polygon", refuse)
        res = run_census(curve, n, Y)
        assert len(res.csv_lines) == lines
        assert hashlib.sha256("\n".join(res.csv_lines).encode()).hexdigest() == digest


class TestFactorCap:
    """Above the factor cap the census decides irreducibility by the screen
    alone, and stops where it would need Zassenhaus."""

    def test_screen_decides_above_the_cap(self, monkeypatch):
        def refuse(F, cap):
            raise AssertionError("factor_over_q called")

        monkeypatch.setattr(census, "factor_over_q", refuse)
        entry = census.classify_record(P((-1, -1, 0, 0, 0, 1)), CensusConfig(factor_cap=4))  # x^5 - x - 1
        assert entry.status == SN_CERTIFIED

    def test_reducible_above_the_cap_raises(self):
        F = P((1, 0, 1)) * P((1, 1, 0, 1))  # (x^2 + 1)(x^3 + x + 1)
        with pytest.raises(DegreeCapExceeded, match="cannot decide irreducibility at degree 5 above factor cap 4"):
            census.classify_record(F, CensusConfig(factor_cap=4))


def _groups_by_F(records):
    """CSV rows regrouped by F: the oracle for the table's multiplicities."""
    groups = {}
    for r in records:
        groups.setdefault(r.F, []).append(r)
    return groups


class TestDedupe:
    def test_sign_collision(self):
        res = run_census(C3, 4, 2)
        groups = _groups_by_F(rows(res))
        assert all(len({r[1:] for r in g}) == 1 for g in groups.values())  # one set of F columns per F
        max_mult = res.summary["max_multiplicity"]
        assert max_mult == max(map(len, groups.values())) == 2  # (g, b0) and (g, -b0) collide
        two = [g for g in groups.values() if len(g) == 2]
        assert two
        for pair in two:
            assert pair[0].spec.a == pair[1].spec.a
            assert pair[0].spec.b == tuple(-x for x in pair[1].spec.b)

    def test_multiplicity_constant_across_sweep(self):
        mults = []
        for Y in (2, 3, 4):
            res = run_census(C3, 4, Y)
            m = res.summary["max_multiplicity"]
            assert m == max(map(len, _groups_by_F(rows(res)).values()))
            mults.append(m)
        assert len(set(mults)) == 1


class TestFingerprint:
    def test_translation_invariant(self):
        F = P((1, 1, 0, 1))
        assert factor.good_splitting_types(F, 50) == factor.good_splitting_types(translate(F, 1), 50)

    def test_separates_quadratics(self):
        d2 = dict(factor.good_splitting_types(P((-2, 0, 1)), 50))
        d3 = dict(factor.good_splitting_types(P((-3, 0, 1)), 50))
        assert d2 != d3
        # both 2 and 3 are non-residues mod 5; the first separating prime is 7
        assert d2[5] == d3[5] == (2,)
        assert d2[7] == (1, 1) and d3[7] == (2,)

    def test_separates_cubics(self):
        a = factor.good_splitting_types(P((1, 1, 0, 1)), 50)
        b = factor.good_splitting_types(P((1, 2, 0, 1)), 50)
        assert a != b

    def test_hash_stable(self):
        assert sampled(P((1, 1, 0, 1))).hash_hex == sampled(P((1, 1, 0, 1))).hash_hex

    @pytest.mark.parametrize("count", [0, 1, 50])
    def test_hash_is_sha1_of_the_repr(self, count):
        # hash_hex assembles the text from memoised entry reprs; it must stay
        # repr((degree, entries)), with "()" for no entries and the trailing
        # comma of a one-entry tuple.
        fp = census.FieldFingerprint(3, sampled(P((1, 1, 0, 1))).entries[:count])
        assert len(fp.entries) == count
        text = repr((3, fp.entries))
        assert fp.hash_hex == hashlib.sha1(text.encode()).hexdigest()[:12]
        assert fp.hash_hex == fp.hash_hex  # again, from the memoised reprs

    def test_census_records_carry_fingerprint(self):
        # classify_record builds the fingerprint in two kernel calls from
        # its own walk; it must equal the good_splitting_types sample on
        # every irreducible F.
        classified = {}
        run_census(C3, 4, 2, CensusConfig(), classified)
        entries = [e for e in classified.values() if e.fingerprint]
        assert len(entries) > 20
        for e in entries:
            assert e.fingerprint == sampled(e.F), e.F

    def test_equal_entries_are_one_object(self):
        # Each (prime, type) pair is kept once, whatever F it came from, also
        # where a pool of workers classified the F and sent the entries back.
        for workers in (1, 2):
            classified = {}
            run_census(C3, 4, 3, CensusConfig(workers=workers), classified)
            kept, total = {}, 0
            for e in classified.values():
                for entry in e.fingerprint.entries if e.fingerprint else ():
                    assert kept.setdefault(entry, entry) is entry, (workers, entry)
                    total += 1
            assert total > 10 * len(kept)

    def test_compatibility_semantics(self):
        from hyperfield.census import FieldFingerprint

        a = FieldFingerprint(2, ((3, (2,)), (5, (2,))))
        b = FieldFingerprint(2, ((3, (2,)), (7, (1, 1))))  # disjoint at 5/7: index-prime gap
        c = FieldFingerprint(2, ((3, (1, 1)), (5, (2,))))
        assert compatible(a, b) and compatible(b, a)
        assert not compatible(a, c)
        assert not compatible(a, FieldFingerprint(3, a.entries))


class TestClassIndex:
    """census._class_groups against a union-find over the pairwise
    oracles.compatible relation, built here."""

    TYPES = ((7,), (4, 3), (5, 1, 1), (3, 2, 1, 1), (2, 2, 1, 1, 1))

    def _records(self, count, seed):
        rng = random.Random(seed)
        pool = factor.primes_not_dividing(1, 16)
        fresh, fingerprints = [], []
        for _ in range(count):
            if fresh and rng.random() < 0.3:
                # A field seen again, with other bad primes and perhaps
                # a colliding type at one prime.
                entries = list(rng.choice(fresh))
                for _ in range(rng.randint(1, 2)):
                    entries.pop(rng.randrange(len(entries)))
                if rng.random() < 0.5:
                    k = rng.randrange(len(entries))
                    entries[k] = (entries[k][0], rng.choice(self.TYPES))
            else:
                entries = [(p, rng.choice(self.TYPES)) for p in pool if rng.random() < 0.85]
                fresh.append(entries)
            fingerprints.append(census.FieldFingerprint(7, tuple(entries)))
        # Degree 7 > ISO_CAP: no isomorphism test runs, each F is just a label.
        return [
            census.FieldEntry(P((i, 0, 0, 0, 0, 0, 0, 1)), 1, SN_CERTIFIED, fingerprint=fp)
            for i, fp in enumerate(fingerprints)
        ]

    @staticmethod
    def _reference(records):
        parent = list(range(len(records)))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i, a in enumerate(records):
            for j in range(i + 1, len(records)):
                if compatible(a.fingerprint, records[j].fingerprint):
                    parent[find(i)] = find(j)
        groups = {}
        for i, r in enumerate(records):
            groups.setdefault(find(i), set()).add(r.F.coeffs)
        return {frozenset(g) for g in groups.values()}

    def test_matches_pairwise_compatible_above_2000_keys(self):
        assert census.ISO_CAP < 7
        records = self._records(2300, seed=5)
        assert len({r.fingerprint.entries for r in records}) > 2000
        classes, unconfirmed = census._class_groups(records)
        got = {frozenset(r.F.coeffs for r in group) for group in classes}
        want = self._reference(records)
        assert got == want
        assert unconfirmed == sum(len(g) > 1 for g in want) > 100
        assert len(want) < len(records)

    def test_empty_fingerprint_is_compatible_with_all(self):
        records = self._records(40, seed=6)
        empty = census.FieldFingerprint(7, ())
        records.append(census.FieldEntry(P((99, 0, 0, 0, 0, 0, 0, 1)), 1, SN_CERTIFIED, fingerprint=empty))
        classes, _ = census._class_groups(records)
        assert len(classes) == 1 == len(self._reference(records))


class TestIsomorphicExact:
    def test_examples(self):
        assert isomorphic_exact(P((-2, 0, 1)), P((-8, 0, 1)))
        assert not isomorphic_exact(P((-2, 0, 1)), P((-3, 0, 1)))
        F = P((1, 1, 0, 1))
        assert isomorphic_exact(F, translate(F, 3))
        assert not isomorphic_exact(F, P((1, 2, 0, 1)))

    def test_cap(self):
        with pytest.raises(DegreeCapExceeded):
            isomorphic_exact(P([1] * 8 + [1]), P([2] * 8 + [1]), cap=6)

    @pytest.mark.parametrize(
        "F1, F2, t",
        [
            ((-2, 0, 1), (-8, 0, 1), 1),
            ((1, 1, 0, 1), (5, 4, 3, 1), 2),
            ((1, 0, 0, 0, 1), (2, -1, 0, 3, 1), 3),
            ((1, 1, 0, 1), (-7, 0, 0, 0, 0, 0, 1), 1),
            ((1, 2, 3), (-2, 0, 0, 1), 2),  # non-monic F1
            ((5, 0, 1, -2), (3, -1, 0, 4, -3), 1),  # negative leading coefficients
            ((1, -1, 0, 0, 0, 1), (2, -1, 0, 3), 3),  # 5 x 3 (sympy 1.14 drops the sign (-1)^15 of 3 x 5)
            ((-1, 0, 1, -2, -2, 2, 1), (-1, 0, 1, 2, -2, -2, 1), 2),  # a census-quartic-iso pair
        ],
    )
    def test_resultant_in_x_matches_sympy(self, F1, F2, t):
        want = sympy.Poly(sympy.resultant(_sym(F1, Yv), _sym(F2, X + t * Yv), Yv), X)
        got = census._resultant_in_x(P(F1), P(F2), t)
        assert list(got.coeffs) == [int(c) for c in reversed(want.all_coeffs())]

    def test_no_squarefree_shift_is_search_exhausted(self, monkeypatch):
        # R_t of the wrong degree at every shift: the search gives up typed.
        monkeypatch.setattr(census, "_resultant_in_x", lambda F1, F2, t: P((1, 1)))
        with pytest.raises(SearchExhausted):
            isomorphic_exact(P((1, 1, 0, 1)), P((1, 2, 0, 1)))

    QUARTIC_ISO_PAIR = (P((-1, 0, 1, -2, -2, 2, 1)), P((-1, 0, 1, 2, -2, -2, 1)))  # F and F(-x)
    F = QUARTIC_ISO_PAIR[0]

    def test_x_to_minus_x_pair_makes_no_discriminant_call(self, monkeypatch):
        # The mirror pair is proved by x -> -x, with no R_t at all. F and
        # F(-x-1) are isomorphic but not mirrors: their R_1 is not squarefree
        # (its roots -a_j - 1 - a_i come in pairs), so the good-prime walk of
        # lift_and_recombine raises NotSquarefree and Trager's search moves
        # on to t = 2. No Disc(R_t) is computed: every discriminant goes
        # through intpoly.resultant, and nothing on this path calls it.
        calls, tried = [], []
        real, real_resultant = census._resultant_in_x, intpoly.resultant

        def counting(a, b):
            calls.append(a.degree)
            return real_resultant(a, b)

        def recording(F1, F2, t):
            tried.append(t)
            return real(F1, F2, t)

        monkeypatch.setattr(intpoly, "resultant", counting)
        monkeypatch.setattr(census, "_resultant_in_x", recording)
        not_mirrors = (self.F, translate(scale_x(self.F, -1), 1))
        for pair, shifts in ((self.QUARTIC_ISO_PAIR, []), (not_mirrors, [1, 2])):
            tried.clear()
            assert isomorphic_exact(*pair)
            assert tried == shifts
        assert calls == []

    def test_mirror_pairs_are_proved_without_resultant(self, monkeypatch):
        def no_resultant(*args):
            raise AssertionError("_resultant_in_x called")

        monkeypatch.setattr(census, "_resultant_in_x", no_resultant)
        assert isomorphic_exact(*self.QUARTIC_ISO_PAIR)
        quintic = P((-1, -1, 0, 0, 0, 1))  # odd n: F(-x) has leading coefficient -1
        assert isomorphic_exact(quintic, -scale_x(quintic, -1))
        assert isomorphic_exact(quintic, scale_x(quintic, -1))
        assert isomorphic_exact(self.F * 3, scale_x(self.F, -1) * -2)  # not primitive
        # The proof comes before the degree cap, at n = 8 as at n = 5.
        octic = P((3, 1, 0, 2, 0, 0, 5, 1, 1))
        assert isomorphic_exact(octic, scale_x(octic, -1), cap=6)
        assert isomorphic_exact(quintic, -scale_x(quintic, -1), cap=4)
        with pytest.raises(DegreeCapExceeded):
            isomorphic_exact(octic, translate(octic, 1), cap=6)

    def test_walk_on_the_quartic_iso_resolvents(self):
        # The squarefree R_t of the mirror pairs of census-quartic-iso
        # (degree 36, coefficients past 64 bits): the kernel walk takes the
        # primes that primes_not_dividing(lc * Disc) does.
        pairs = multi_F_classes(run_census(QUARTIC, 6, Fraction(5, 4)))
        assert len(pairs) == 3
        assert all(mirror(F1) == F2 for F1, F2 in pairs)
        resolvents = [
            census._resultant_in_x(P(F1), P(F2), t).primitive() for F1, F2 in pairs for t in (1, 2)
        ]
        squarefree = [R for R in resolvents if discriminant(R)]
        assert len(squarefree) == 3 and {R.degree for R in squarefree} == {36}
        for R in squarefree:
            for start in (2, 3):
                walk = factor.good_splitting_types(R, 40, start)
                assert [q for q, _ in walk] == factor.primes_not_dividing(R.lc * discriminant(R), 40, start)

    def test_splitting_types_separate_without_lifting(self, monkeypatch):
        # At one of the first six good primes of R_1 for x^5 - x - 1 and
        # x^5 + x^2 + 1, the factor degrees exclude 5 as a subset sum (a
        # 5-cycle against a (3,2) type gives orbits of 15 and 10): no
        # degree-5 factor, decided before any Hensel lift.
        def no_lift(*args):
            raise AssertionError("hensel_lift_factors called")

        monkeypatch.setattr(factor, "hensel_lift_factors", no_lift)
        assert not isomorphic_exact(P((-1, -1, 0, 0, 0, 1)), P((1, 0, 1, 0, 0, 1)))
        with pytest.raises(AssertionError):
            isomorphic_exact(P((-2, 0, 1)), P((-8, 0, 1)))  # isomorphic: must lift

    def test_consistent_with_fingerprints(self):
        polys = [P((1, 1, 0, 1)), P((-2, 0, 0, 1)), P((2, 3, 0, 1)), P((11, 13, 6, 1)), P((-1, -1, 0, 1))]
        for A, B in itertools.combinations(polys, 2):
            iso = isomorphic_exact(A, B)
            fpa, fpb = sampled(A), sampled(B)
            if iso:
                assert compatible(fpa, fpb)
            if not compatible(fpa, fpb):
                assert not iso

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy import AlgebraicNumber, Poly, Symbol
        from sympy.polys.numberfields import field_isomorphism

        x = Symbol("x")
        rng = random.Random(2)
        pairs = 0
        polys = []
        while len(polys) < 8:
            cand = P([rng.randint(-6, 6) for _ in range(3)] + [1])
            if is_irreducible(cand):
                polys.append(cand)
        polys.append(translate(polys[0], 2))
        for A, B in itertools.combinations(polys, 2):
            mine = isomorphic_exact(A, B)
            ra = AlgebraicNumber(Poly(sum(c * x**i for i, c in enumerate(A.coeffs)), x).all_roots()[0])
            rb = AlgebraicNumber(Poly(sum(c * x**i for i, c in enumerate(B.coeffs)), x).all_roots()[0])
            assert mine == (field_isomorphism(ra, rb) is not None), (A, B)
            pairs += 1
        assert pairs >= 36

    def test_matches_sympy_higher_degrees(self):
        sympy = pytest.importorskip("sympy")
        from sympy import AlgebraicNumber, Poly, Symbol
        from sympy.polys.numberfields import field_isomorphism

        from hyperfield.intpoly import monicize

        x = Symbol("x")
        rng = random.Random(5)

        def rand_irr(deg):
            while True:
                cand = P([rng.randint(-5, 5) for _ in range(deg)] + [1])
                if cand.degree == deg and is_irreducible(cand):
                    return cand

        for deg in (4, 5, 6):
            polys = [rand_irr(deg) for _ in range(3)]
            polys.append(translate(polys[0], 2))
            polys.append(monicize(scale_x(polys[1], 2)))  # roots halved: same field
            roots = [Poly(sum(c * x**i for i, c in enumerate(A.coeffs)), x).all_roots()[0] for A in polys]
            # The mirror, with the root -roots[2] (its own root 0 is minus
            # the last root of polys[2], which may generate another subfield of C).
            polys.append(scale_x(polys[2], -1))
            roots.append(-roots[2])
            for (A, ra), (B, rb) in itertools.combinations(zip(polys, roots), 2):
                mine = isomorphic_exact(A, B)
                assert mine == (field_isomorphism(AlgebraicNumber(ra), AlgebraicNumber(rb)) is not None), (A, B)


class TestRootBounds:
    def test_linear(self):
        y, _ = root_bound_box(P((-7, 1)))
        assert 7 <= y <= Fraction(7) + Fraction(1, 2**14)

    def test_non_monic_rejected(self):
        with pytest.raises(NonMonic):
            root_bound_box(P((1, 2)))

    def test_dominates_numpy_roots(self):
        rng = random.Random(3)
        for _ in range(2000):
            deg = rng.randint(1, 8)
            F = P([rng.randint(-100, 100) for _ in range(deg)] + [1])
            y, disc_bound = root_bound_box(F)
            roots = np.roots(list(reversed(F.coeffs)))
            assert max(abs(r) for r in roots) <= float(y) * (1 + 1e-12) + 1e-9

    def test_disc_bound_over_box(self):
        from hyperfield.family import build_family_member
        from hyperfield.intpoly import discriminant

        # the odd-even, odd-odd and even-even census shapes, and the
        # odd-odd shape with lc F = -10^6, whose |lc F|^(2n-2) the bound needs
        for curve, d, n, Y in [
            (C3, 3, 4, 2),
            (C3, 3, 5, 2),
            (HyperellipticCurve(P((1, 0, 0, 0, 1))), 4, 6, 2),
            (HyperellipticCurve(P((1, 1, 0, 10**6))), 3, 5, 1),
        ]:
            sh = FamilyShape.census_shape(d, n)
            bound = box_disc_bound(curve, sh, Y)
            for s in CoefficientBox.build(sh, Y).specializations():
                F = build_family_member(curve, sh, s)
                assert abs(discriminant(F)) <= bound, (curve, n, s)


class TestExponents:
    def test_box_exponent_example(self):
        assert exponents(1, 3, 4).box_exponent == Fraction(7, 2)

    def test_limit(self):
        rep = exponents(1, 3, 10**4)
        assert abs(rep.c_n - Fraction(1, 4)) < Fraction(1, 1000)
        assert rep.c_n < Fraction(1, 4)

    def test_t_exponent_display(self):
        # n - (3+2g) + 2g^2/n for the odd case
        for g, n in [(1, 5), (2, 9), (3, 21)]:
            rep = exponents(g, 2 * g + 1, n)
            assert rep.t_exponent == n - (3 + 2 * g) + Fraction(2 * g * g, n)

    def test_improved_beats_unimproved(self):
        for g in (1, 2, 3):
            d = 2 * g + 1
            for n in range(max(d, 20), 1001):
                rep = exponents(g, d, n)
                assert rep.c_n_improved > rep.c_n
                assert rep.c_n_improved < Fraction(1, 4)
            d = 2 * g + 2
            for n in range(max(d + 2, 20), 1001):
                if n % 2:
                    continue
                rep = exponents(g, d, n)
                assert rep.c_n_improved > rep.c_n < Fraction(1, 4)

    def test_positivity_remark(self):
        assert all(c_n_positive(4, 9, n) for n in range(9, 10**6 + 1))
        assert all(c_n_positive(2, 6, n) for n in range(8, 10**6 + 1, 2))
        assert not c_n_positive(1, 3, 3)

    def test_hypothesis_errors(self):
        for g, d, n in [(1, 3, 2), (2, 6, 7), (2, 6, 6), (1, 4, 5), (0, 3, 5), (1, 5, 6)]:
            with pytest.raises(HypothesisViolated):
                exponents(g, d, n)


class TestThreshold:
    def test_g1_value(self):
        assert ev_threshold_search(1) == 16052

    def test_tiny_window_raises(self):
        from hyperfield.errors import SearchWindowExceeded

        with pytest.raises(SearchWindowExceeded):
            ev_threshold_search(1, window=1000)


class TestRunCensus:
    def test_summary_schema(self):
        res = run_census(C3, 3, 4)
        s = res.summary
        assert set(s) == {"counts", "classes", "max_multiplicity", "exponent_report", "diagnostics"}
        assert set(s["counts"]) == {"reducible", "irreducible", "sn_certified"}
        assert sum(s["counts"].values()) == s["diagnostics"]["box_cardinality"] == 27

    def test_classes_weakly_increasing(self):
        prev = -1
        for Y in (2, 3, 4, 6, 8):
            res = run_census(C3, 3, Y)
            assert res.summary["classes"] >= prev
            prev = res.summary["classes"]

    def test_log_ratio_diagnostic_n3_y8(self):
        res = run_census(C3, 3, 8)
        ratio = res.summary["diagnostics"]["log_cardinality_ratio"]
        c = Fraction(res.summary["exponent_report"]["box_exponent"])
        assert abs(ratio - float(c)) / float(c) < 0.15

    def test_csv_deterministic(self):
        a = run_census(C3, 3, 3).csv_lines
        b = run_census(C3, 3, 3).csv_lines
        assert a == b
        assert all(line.count(";") == 6 for line in a)

    def test_workers_agree(self):
        base = run_census(C3, 3, 3, CensusConfig(workers=1))
        multi = run_census(C3, 3, 3, CensusConfig(workers=2))
        assert base.csv_lines == multi.csv_lines
        assert base.summary == multi.summary

    def test_one_classification_per_distinct_F(self, monkeypatch):
        calls = {"classify": 0, "build": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(census, "classify_record", counted("classify", census.classify_record))
        monkeypatch.setattr(census, "family_coeffs", counted("build", census.family_coeffs))
        res = run_census(C3, 4, 3)
        distinct = {r.F for r in rows(res)}
        assert len(distinct) < len(res.csv_lines)  # g -> -g or h -> -h repeats F in this box
        assert calls["classify"] == len(distinct)
        assert calls["build"] == CoefficientBox.build(res.shape, 3).cardinality == len(res.csv_lines)

    def test_pool_gets_only_unseen_F(self, monkeypatch):
        """At even n, h -> -h repeats F: the pool is sent each distinct F
        once, and none that a smaller box of the same census classified."""
        sent = []
        real = census._classify_in_pool

        def recording(Fs, cfg):
            sent.append([F.coeffs for F in Fs])
            return real(Fs, cfg)

        monkeypatch.setattr(census, "_classify_in_pool", recording)
        base = run_census(C3, 4, 3, CensusConfig(workers=1))
        multi = run_census(C3, 4, 3, CensusConfig(workers=2))
        assert base.csv_lines == multi.csv_lines
        assert base.summary == multi.summary
        in_order = list(dict.fromkeys(r.F for r in rows(base)))
        assert sent == [in_order]

        sent.clear()
        classified = {}
        small = run_census(C3, 4, 2, CensusConfig(workers=2), classified)
        seen = set(classified)
        assert seen == {r.F for r in rows(small)}
        again = run_census(C3, 4, 3, CensusConfig(workers=2), classified)
        assert sent[1] == [k for k in in_order if k not in seen]
        assert again.csv_lines == base.csv_lines and again.summary == base.summary
        assert set(classified) == set(in_order)

    def test_sweep_shares_entries_and_leaves_smaller_boxes_alone(self):
        """A sweep's larger box reuses the smaller box's entries themselves,
        and running it changes nothing in the smaller box's result."""

        def snapshot(res):
            return list(res.csv_lines), copy.deepcopy(res.summary)

        classified = {}
        small = run_census(C3, 4, 2, CensusConfig(), classified)
        before, small_entries = snapshot(small), dict(classified)
        large = run_census(C3, 4, 3, CensusConfig(), classified)
        assert {r.F for r in rows(small)} < {r.F for r in rows(large)}
        assert all(classified[F] is e for F, e in small_entries.items())
        assert snapshot(small) == before == snapshot(run_census(C3, 4, 2))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_summary_matches_a_recount_of_the_records(self, workers):
        """On the even-curve sweep x^4 + 1, n = 6, Y = 5/4 then 3/2: the
        per-box figures of each summary, counted again from its records."""
        keys = {REDUCIBLE: "reducible", IRREDUCIBLE_UNCERTIFIED: "irreducible", SN_CERTIFIED: "sn_certified"}
        classified = {}
        for Y in (Fraction(5, 4), Fraction(3, 2)):
            res = run_census(QUARTIC, 6, Y, CensusConfig(workers=workers), classified)
            counts = dict.fromkeys(keys.values(), 0)
            hist = {}
            records = rows(res)
            for r in records:
                counts[keys[r.status]] += 1
                b = str(abs(r.disc_F).bit_length())
                hist[b] = hist.get(b, 0) + 1
            s, diag = res.summary, res.summary["diagnostics"]
            assert s["counts"] == counts
            assert diag["disc_histogram"] == hist
            pointed = [r for r in records if not r.spec.h_poly(res.shape).is_zero()]
            assert diag["h_zero_members"] == len(records) - len(pointed) > 0
            assert diag["reducible_proportion_all"] == counts["reducible"] / len(records)
            assert diag["reducible_proportion_pointed"] == sum(r.status == REDUCIBLE for r in pointed) / len(pointed)
            assert s["max_multiplicity"] == max(map(len, _groups_by_F(records).values()))

    @pytest.mark.parametrize(
        "curve, n, Y",
        [(QUARTIC, 6, Fraction(3, 2)), (HyperellipticCurve(P((1, 0, 0, 0, 0, 0, 1))), 8, 1)],
    )
    def test_mirror_copies_equal_their_classification(self, curve, n, Y):
        """On an even curve the F whose mirror F(-x) was classified first
        get the mirror's entry with their own F: each entry equals
        classify_record of its F."""
        entries = {}
        res = run_census(curve, n, Y, CensusConfig(), entries)
        assert set(entries) == {r.F for r in rows(res)}
        assert sum(mirror(F) in entries for F in entries) > len(entries) // 2
        for F, e in entries.items():
            want = census.classify_record(P(F), CensusConfig())
            assert e.F.coeffs == F
            assert (e.disc_F, e.status, e.fingerprint, e.hash_hex) == (
                want.disc_F, want.status, want.fingerprint, want.hash_hex
            )

    def test_mirror_classes_above_iso_cap_are_confirmed(self):
        # x^6 + 1 at n = 8 > ISO_CAP: every class of several F is {F, F(-x)},
        # which isomorphic_exact proves without Trager's capped test.
        res = run_census(HyperellipticCurve(P((1, 0, 0, 0, 0, 0, 1))), 8, 1)
        multi = multi_F_classes(res)
        assert len(multi) == 11
        assert all(mirror(F1) == F2 for F1, F2 in multi)
        assert res.summary["diagnostics"]["unconfirmed_classes"] == 0

    def test_one_classification_per_mirror_orbit(self, monkeypatch):
        calls = []
        real = census.classify_record

        def counting(F, cfg):
            calls.append(F.coeffs)
            return real(F, cfg)

        monkeypatch.setattr(census, "classify_record", counting)
        res = run_census(QUARTIC, 6, Fraction(5, 4))  # the census-quartic-iso box
        distinct = {r.F for r in rows(res)}
        orbits = {frozenset((F, mirror(F))) for F in distinct}
        assert (len(distinct), len(orbits), len(calls)) == (54, 30, 30)
        assert all(len(orbit & set(calls)) == 1 for orbit in orbits)

    def test_pool_gets_one_F_per_mirror_orbit(self, monkeypatch):
        sent = []
        real = census._classify_in_pool

        def recording(Fs, cfg):
            sent.extend(F.coeffs for F in Fs)
            return real(Fs, cfg)

        monkeypatch.setattr(census, "_classify_in_pool", recording)
        base = run_census(QUARTIC, 6, Fraction(3, 2), CensusConfig(workers=1))
        multi = run_census(QUARTIC, 6, Fraction(3, 2), CensusConfig(workers=2))
        assert base.csv_lines == multi.csv_lines
        assert base.summary == multi.summary
        distinct = {r.F for r in rows(base)}
        orbits = {frozenset((F, mirror(F))) for F in distinct}
        assert len(sent) == len(orbits) < len(distinct)
        assert all(len(orbit & set(sent)) == 1 for orbit in orbits)

    def test_all_sn_have_zero_residue(self):
        # The CSV's F minus g^2 - f h^2 rebuilt from its spec is zero, and
        # the point map is defined on every S_n-certified member.
        from hyperfield.family import check_point_map

        res = run_census(C3, 3, 4)
        for r, line in zip(rows(res), res.csv_lines):
            assert line.split(";")[2] == f_from_spec(C3, res.shape, line)
            if r.status == SN_CERTIFIED:
                assert check_point_map(C3, res.shape, r.spec).coeffs == r.F

    def test_class_ids_assigned(self):
        res = run_census(C3, 3, 4)
        for r in rows(res):
            if r.status in (SN_CERTIFIED, IRREDUCIBLE_UNCERTIFIED):
                assert r.class_id is not None
            else:
                assert r.class_id is None

    def test_even_degree_census(self):
        from hyperfield.family import check_point_map

        res = run_census(C6, 8, 1)
        s = res.summary
        assert s["diagnostics"]["box_cardinality"] == 3**5 == len(res.csv_lines)
        assert s["counts"]["sn_certified"] > 0
        assert s["diagnostics"]["h_zero_members"] == 3**4
        for r, line in zip(rows(res)[:40], res.csv_lines):
            assert line.split(";")[2] == f_from_spec(C6, res.shape, line)
            if r.status == SN_CERTIFIED:
                assert check_point_map(C6, res.shape, r.spec).coeffs == r.F

    def test_quartic_curve_census(self):
        c4 = HyperellipticCurve(P((1, 0, 0, 0, 1)))
        res = run_census(c4, 6, 1)
        assert res.summary["diagnostics"]["box_cardinality"] == 81
        assert res.summary["counts"]["sn_certified"] > 0
