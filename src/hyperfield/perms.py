"""Symmetric-group recognition from cycle evidence: recognize_sn and its
rules on cycle types. Cycle types are descending integer tuples summing
to n, as the kernels return them (factor.good_splitting_types and the
census's splitting_types); recognize_sn takes them as given. The group
must be transitive, which is the caller's to prove: both callers pass
the types of an F they have shown irreducible.

Recognition works at the level of cycle TYPES (all that Dedekind or
Newton-polygon evidence provides). A part l of a type is usable as an
l-cycle only when it is coprime to every other nontrivial part: powering
by the lcm of the others then isolates a clean l-cycle. Under
transitivity, S_n is recognized from a transposition together with an
(n-1)-cycle, a prime cycle p > n/2 (including a full cycle for prime n),
or both a 3-cycle and an (n-2)-cycle. A full cycle of composite length
is NOT generating evidence (D_4 on 4 points is transitive with types [4]
and [2,1,1]); it contributes transitivity only. The tests check these
rules against a brute-force closure and a Schreier-Sims group order,
which live in tests/oracles.py.
"""
from __future__ import annotations

import functools
import math
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

# Nothing here calls factor_mod_p; it stays for perfbench/trace_spans.WRAPPED.
from .factor import factor_mod_p, is_prime  # noqa: F401

CycleType = tuple[int, ...]

RULE_FULL_CYCLE = "FULL_CYCLE+TRANSPOSITION"
RULE_LONG_PRIME = "LONG_PRIME_CYCLE+TRANSPOSITION"
RULE_N_MINUS_1 = "N_MINUS_1+TRANSPOSITION"
RULE_EVEN = "N_MINUS_2+3CYCLE+TRANSPOSITION"

SN = "SN"
INCONCLUSIVE = "INCONCLUSIVE"


class GroupCertificate(NamedTuple):
    degree: int
    evidence: tuple[tuple[CycleType, str], ...]  # (type, provenance)
    rule: str | None
    conclusion: str

    def json_text(self) -> str:
        """The certificate as JSON text, byte for byte what
        json.dumps(obj, indent=2) writes for
        {degree, evidence: [{cycle_type, source}], rule, conclusion}.
        json.dumps takes its pure-Python encoder whenever it indents, so
        this joins one cached block per cycle type and escapes each string
        with the function json.dumps uses (ensure_ascii=True)."""
        if self.evidence:
            entries = ",\n".join(
                _evidence_head(t) + encode_basestring_ascii(src) + "\n    }" for t, src in self.evidence
            )
            evidence = f"[\n{entries}\n  ]"
        else:
            evidence = "[]"
        rule = "null" if self.rule is None else encode_basestring_ascii(self.rule)
        return (
            f'{{\n  "degree": {self.degree},\n  "evidence": {evidence},\n'
            f'  "rule": {rule},\n  "conclusion": {encode_basestring_ascii(self.conclusion)}\n}}'
        )


@functools.lru_cache(maxsize=4096)
def _evidence_head(t: CycleType) -> str:
    """The text of an evidence entry of type t from its `{` up to
    `"source": `, indented as json.dumps(..., indent=2) indents it.
    Memoised like usable_cycle_lengths: a certificate repeats a few types."""
    parts = ",\n".join(f"        {x}" for x in t)
    listed = f"[\n{parts}\n      ]" if t else "[]"
    return f'    {{\n      "cycle_type": {listed},\n      "source": '


@functools.lru_cache(maxsize=4096)
def usable_cycle_lengths(t: CycleType) -> frozenset[int]:
    """Parts isolable as clean cycles by powering.

    A part l > 1 qualifies when it appears once and is coprime to every
    other nontrivial part; raising to the lcm of the others then kills
    them and leaves the l-cycle intact. Memoised per cycle type: a census
    asks about the same few types for every record.
    """
    nontrivial = [x for x in t if x > 1]
    return frozenset(
        l for i, l in enumerate(nontrivial)
        if all(math.gcd(l, o) == 1 for o in nontrivial[:i] + nontrivial[i + 1 :])
    )


def recognize_sn(n: int, evidence) -> GroupCertificate:
    """Apply the type-level generating rules to `evidence`, a sequence of
    (cycle type, source) pairs from a transitive group of degree n. Each
    type is a descending tuple summing to n, as the kernels return it; it
    is neither checked nor sorted here. The pairs are kept, in order, as
    the certificate's evidence."""
    ev = tuple(evidence)
    cert = lambda rule, concl: GroupCertificate(n, ev, rule, concl)

    if n == 1:
        return cert(RULE_FULL_CYCLE, SN)

    usable = set().union(*map(usable_cycle_lengths, {t for t, _ in ev}))

    if 2 not in usable:
        return cert(None, INCONCLUSIVE)
    if n in usable and is_prime(n):
        return cert(RULE_FULL_CYCLE, SN)
    if n - 1 in usable and n - 1 >= 2:
        return cert(RULE_N_MINUS_1, SN)
    for l in sorted(usable):
        if l > n / 2 and is_prime(l):
            return cert(RULE_LONG_PRIME, SN)
    if 3 in usable and n - 2 in usable and n >= 4:
        return cert(RULE_EVEN, SN)
    return cert(None, INCONCLUSIVE)
