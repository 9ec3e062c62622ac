import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfield.census import fingerprint
from hyperfield.errors import DegreeCapExceeded
from hyperfield.intpoly import IntPolynomial
from hyperfield.perms import (
    INCONCLUSIVE,
    RULE_EVEN,
    RULE_FULL_CYCLE,
    RULE_LONG_PRIME,
    RULE_N_MINUS_1,
    SN,
    GroupCertificate,
    recognize_sn,
    usable_cycle_lengths,
)
from oracles import (
    canonical_of_type,
    closure,
    compose,
    cycle_type,
    from_cycles,
    group_order,
    identity,
    inverse,
    is_transitive,
)


class TestBasics:
    def test_compose_inverse(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(1, 8)
            img = list(range(n))
            rng.shuffle(img)
            p = tuple(img)
            assert compose(p, inverse(p)) == identity(n)
            assert compose(inverse(p), p) == identity(n)

    def test_cycle_type(self):
        assert cycle_type(from_cycles(5, [(0, 1, 2), (3, 4)])) == (3, 2)
        assert cycle_type(identity(4)) == (1, 1, 1, 1)

    def test_canonical_round_trip(self):
        for t in [(3, 2, 1), (2, 2), (6,), (1, 1, 1)]:
            n = sum(t)
            assert cycle_type(canonical_of_type(t, n)) == t


class TestClosureOrder:
    def test_examples(self):
        assert len(closure([from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1, 2)])])) == 6
        assert len(closure([from_cycles(4, [(0, 1), (2, 3)])])) == 2
        assert len(closure([from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(0, 1)])])) == 120

    def test_cap(self):
        with pytest.raises(DegreeCapExceeded):
            closure([identity(10)])
        with pytest.raises(DegreeCapExceeded):
            group_order([identity(17)])

    def test_order_matches_closure(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(2, 7)
            gens = []
            for _ in range(rng.randint(1, 3)):
                img = list(range(n))
                rng.shuffle(img)
                gens.append(tuple(img))
            assert group_order(gens) == len(closure(gens))

    def test_order_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.combinatorics import Permutation, PermutationGroup

        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(4, 13)
            gens = []
            for _ in range(rng.randint(1, 3)):
                img = list(range(n))
                rng.shuffle(img)
                gens.append(tuple(img))
            G = PermutationGroup([Permutation(list(g)) for g in gens])
            assert group_order(gens) == G.order()

    def test_transitivity(self):
        assert is_transitive([from_cycles(3, [(0, 1, 2)])])
        assert not is_transitive([from_cycles(3, [(0, 1)])])
        assert not is_transitive([from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])])

    def test_order_only_range_above_closure_cap(self):
        for n in (10, 13, 16):
            gens = [from_cycles(n, [tuple(range(n))]), from_cycles(n, [(0, 1)])]
            assert group_order(gens) == math.factorial(n)
            assert group_order([from_cycles(n, [tuple(range(n))])]) == n


class TestUsableLengths:
    def test_isolation_rules(self):
        assert usable_cycle_lengths((2, 1, 1)) == {2}
        assert usable_cycle_lengths((2, 2, 1)) == set()
        assert usable_cycle_lengths((4, 2, 1)) == set()
        assert usable_cycle_lengths((3, 2, 1)) == {2, 3}
        assert usable_cycle_lengths((6, 1, 1)) == {6}
        assert usable_cycle_lengths((5, 3, 1)) == {5, 3}

    def test_powering_realizes_isolation(self):
        # if l is usable in type t, then sigma^(lcm of the others) is an
        # honest l-cycle for the canonical placement
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(3, 9)
            parts = []
            left = n
            while left:
                p = rng.randint(1, left)
                parts.append(p)
                left -= p
            t = tuple(sorted(parts, reverse=True))
            sigma = canonical_of_type(t, n)
            for l in usable_cycle_lengths(t):
                m = 1
                for o in t:
                    if o > 1 and o != l:
                        m = math.lcm(m, o)
                power = identity(n)
                for _ in range(m):
                    power = compose(sigma, power)
                expected = tuple(sorted([l] + [1] * (n - l), reverse=True))
                if t.count(l) == 1:
                    assert cycle_type(power) == expected, (t, l, m)


class TestRecognizeSn:
    def test_spec_examples(self):
        c = recognize_sn(7, [((2, 1, 1, 1, 1, 1), "a"), ((7,), "b")])
        assert (c.conclusion, c.rule) == (SN, RULE_FULL_CYCLE)
        c = recognize_sn(8, [((2, 1, 1, 1, 1, 1, 1), "a"), ((5, 1, 1, 1), "b")])
        assert (c.conclusion, c.rule) == (SN, RULE_LONG_PRIME)
        c = recognize_sn(8, [((2, 1, 1, 1, 1, 1, 1), "a"), ((3, 1, 1, 1, 1, 1), "b"), ((6, 1, 1), "c")])
        assert (c.conclusion, c.rule) == (SN, RULE_EVEN)

    def test_n_minus_1_rule(self):
        c = recognize_sn(4, [((2, 1, 1), "t"), ((3, 1), "c")])
        assert (c.conclusion, c.rule) == (SN, RULE_N_MINUS_1)

    def test_composite_full_cycle_not_generating(self):
        # D4 on 4 points: transitive, has [4] and [2,1,1], but is not S4.
        d4 = [from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(0, 2)])]
        assert group_order(d4) == 8
        types = sorted({cycle_type(p) for p in closure(d4)})
        cert = recognize_sn(4, [(t, "d4") for t in types])
        assert cert.conclusion == INCONCLUSIVE

    def test_evidence_normalised_in_input_order(self):
        evidence = [((2, 1, 1), "p=3"), ((3, 1), "p=5"), ((3, 1), "p=7"), ((2, 1, 1), "p=11")]
        c = recognize_sn(4, evidence)
        assert (c.conclusion, c.rule) == (SN, RULE_N_MINUS_1)
        assert c.evidence == tuple(evidence)

    def test_soundness_on_proper_transitive_subgroups(self):
        # the type set of any proper transitive subgroup must never be
        # recognized as S_n
        rng = random.Random(4)
        tested = 0
        for _ in range(4000):
            n = rng.randint(3, 8)
            gens = []
            for _ in range(rng.randint(1, 2)):
                img = list(range(n))
                rng.shuffle(img)
                gens.append(tuple(img))
            if not is_transitive(gens):
                continue
            if group_order(gens) == math.factorial(n):
                continue  # S_n itself: skip before enumerating its elements
            G = closure(gens)
            types = sorted({cycle_type(p) for p in G})
            cert = recognize_sn(n, [(t, "fuzz") for t in types])
            assert cert.conclusion == INCONCLUSIVE, (n, sorted(types), len(G))
            tested += 1
        assert tested > 200

    def test_json(self):
        c = recognize_sn(3, [((2, 1), "w"), ((3,), "w")])
        payload = json.loads(c.json_text())
        assert payload["conclusion"] == SN
        assert payload["evidence"][0]["cycle_type"] == [2, 1]


@st.composite
def certificates(draw):
    """A GroupCertificate of degree 1-12 with 0-120 normalized cycle types,
    sources full of characters JSON must escape, and any rule and conclusion."""
    n = draw(st.integers(1, 12))

    @st.composite
    def cycle_types(draw):
        parts, left = [], n
        while left:
            parts.append(draw(st.integers(1, left)))
            left -= parts[-1]
        return tuple(sorted(parts, reverse=True))

    escaped = st.sampled_from('"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\u00e9\u2028\u2603\U0001f600')
    source = st.text(st.one_of(escaped, st.characters()), max_size=12)
    evidence = draw(st.lists(st.tuples(cycle_types(), source), max_size=120))
    rule = draw(st.sampled_from([None, RULE_FULL_CYCLE, RULE_LONG_PRIME, RULE_N_MINUS_1, RULE_EVEN]))
    return GroupCertificate(n, tuple(evidence), rule, draw(st.sampled_from([SN, INCONCLUSIVE])))


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(certificates())
    def test_same_bytes_as_indented_json_dumps(self, c):
        expected = {
            "degree": c.degree,
            "evidence": [{"cycle_type": list(t), "source": src} for t, src in c.evidence],
            "rule": c.rule,
            "conclusion": c.conclusion,
        }
        assert c.json_text() == json.dumps(expected, indent=2)

    def test_degree_0_empty_cycle_type(self):
        c = recognize_sn(0, [((), "")])
        assert c.json_text() == json.dumps(
            {"degree": 0, "evidence": [{"cycle_type": [], "source": ""}], "rule": None, "conclusion": INCONCLUSIVE},
            indent=2,
        )


class TestFrobeniusSample:
    """The Frobenius sample every caller reads: census.fingerprint."""

    def test_cubic(self):
        # x^3+x+1: irreducible mod 2 and 5; x=1 is a root mod 3
        entries = fingerprint(IntPolynomial((1, 1, 0, 1)), 3).entries
        assert entries == ((2, (3,)), (3, (2, 1)), (5, (3,)))

    def test_split_prime_gives_identity_type(self):
        # x^2-2 at p=7 (2 = 3^2 mod 7); Disc = 8 leaves out p=2
        entries = fingerprint(IntPolynomial((-2, 0, 1)), 3).entries
        assert entries[-1] == (7, (1, 1))

    def test_quadratic(self):
        assert fingerprint(IntPolynomial((1, 0, 1)), 2).entries[1] == (5, (1, 1))
