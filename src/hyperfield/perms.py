"""Permutation groups and symmetric-group recognition from cycle evidence.

Permutations are image tuples on {0..n-1}. Cycle types are descending
integer tuples summing to n.

Recognition works at the level of cycle TYPES (all that Dedekind or
Newton-polygon evidence provides). A part l of a type is usable as an
l-cycle only when it is coprime to every other nontrivial part: powering
by the lcm of the others then isolates a clean l-cycle. Under
transitivity, S_n is recognized from a transposition together with an
(n-1)-cycle, a prime cycle p > n/2 (including a full cycle for prime n),
or both a 3-cycle and an (n-2)-cycle. A full cycle of composite length
is NOT generating evidence (D_4 on 4 points is transitive with types [4]
and [2,1,1]); it contributes transitivity only.
"""
from __future__ import annotations

import functools
import math
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import BadEvidence, DegreeCapExceeded
# Nothing here calls factor_mod_p; it stays for perfbench/trace_spans.WRAPPED.
from .factor import factor_mod_p, is_prime  # noqa: F401

Perm = tuple[int, ...]
CycleType = tuple[int, ...]

CLOSURE_CAP = 9
ORDER_CAP = 16


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p*q)(x) = p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def from_cycles(n: int, cycles) -> Perm:
    """Permutation from 0-based cycles, e.g. from_cycles(4, [(0,1)])."""
    out = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
            out[a] = b
    return tuple(out)


def cycle_type(p: Perm) -> CycleType:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        parts.append(ln)
    parts.sort(reverse=True)
    return tuple(parts)


def canonical_of_type(t: CycleType, n: int) -> Perm:
    """Canonical placement: consecutive cycles, e.g. [2,1,1] -> (0 1)."""
    if sum(t) != n:
        raise BadEvidence(f"type {t} does not sum to {n}")
    cycles, start = [], 0
    for part in t:
        cycles.append(tuple(range(start, start + part)))
        start += part
    return from_cycles(n, cycles)


# -- orbits, closure, order -------------------------------------------------


def orbit(gens: list[Perm], x: int) -> set[int]:
    out = {x}
    queue = [x]
    for y in queue:
        for g in gens:
            z = g[y]
            if z not in out:
                out.add(z)
                queue.append(z)
    return out


def is_transitive(gens: list[Perm]) -> bool:
    if not gens:
        return False
    n = len(gens[0])
    return len(orbit(gens, 0)) == n


def closure(gens: list[Perm], cap: int = CLOSURE_CAP) -> frozenset[Perm]:
    """Full element set of the generated group (n <= cap)."""
    gens = [tuple(g) for g in gens]
    if not gens:
        return frozenset()
    n = len(gens[0])
    if n > cap:
        raise DegreeCapExceeded(f"closure enumeration capped at degree {cap}")
    seen = {identity(n)}
    queue = [identity(n)]
    for p in queue:
        for g in gens:
            q = compose(g, p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return frozenset(seen)


def group_order(gens: list[Perm], cap: int = ORDER_CAP) -> int:
    """Exact order via an incremental Schreier-Sims stabilizer chain."""
    gens = [tuple(g) for g in gens]
    if gens and len(gens[0]) > cap:
        raise DegreeCapExceeded(f"stabilizer chains capped at degree {cap}")
    gens = [g for g in gens if any(i != x for i, x in enumerate(g))]
    if not gens:
        return 1
    n = len(gens[0])
    ident = identity(n)
    base: list[int] = []
    strong: list[list[Perm]] = []
    trans: list[dict[int, Perm]] = []

    def add_base_point(g: Perm):
        for x in range(n):
            if g[x] != x:
                base.append(x)
                strong.append([])
                trans.append({})
                return

    def orbit_transversal(i: int):
        pt = base[i]
        t = {pt: ident}
        queue = [pt]
        for x in queue:
            for g in strong[i]:
                y = g[x]
                if y not in t:
                    t[y] = compose(g, t[x])
                    queue.append(y)
        trans[i] = t

    def strip(g: Perm, i: int):
        for j in range(i, len(base)):
            x = g[base[j]]
            u = trans[j].get(x)
            if u is None:
                return g, j
            g = compose(inverse(u), g)
        return g, len(base)

    def complete_level(i: int):
        orbit_transversal(i)
        while True:
            clean = True
            for x in list(trans[i]):
                ux = trans[i][x]
                for g in strong[i]:
                    y = g[x]
                    uy = trans[i].get(y)
                    if uy is None:
                        orbit_transversal(i)
                        uy = trans[i][y]
                    sg = compose(inverse(uy), compose(g, ux))
                    if sg == ident:
                        continue
                    h, j = strip(sg, i + 1)
                    if h != ident:
                        if j == len(base):
                            add_base_point(h)
                        for k in range(i + 1, j + 1):
                            strong[k].append(h)
                        for k in range(j, i, -1):
                            complete_level(k)
                        clean = False
            if clean:
                return

    for g in gens:
        j = 0
        while j < len(base) and g[base[j]] == base[j]:
            j += 1
        if j == len(base):
            add_base_point(g)
        for k in range(j + 1):
            strong[k].append(g)
    for i in range(len(base) - 1, -1, -1):
        complete_level(i)
    out = 1
    for t in trans:
        out *= len(t)
    return out


# -- S_n recognition ---------------------------------------------------------

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


@functools.lru_cache(maxsize=4096)
def _normalized_type(t: tuple, n: int) -> CycleType:
    """t as a descending tuple of ints summing to n. Memoised like
    usable_cycle_lengths; a BadEvidence raised here is not cached, so it is
    raised again on every call with the same type."""
    out = tuple(sorted((int(x) for x in t), reverse=True))
    if sum(out) != n:
        raise BadEvidence(f"cycle type {out} does not sum to degree {n}")
    return out


def recognize_sn(n: int, evidence, transitive: bool) -> GroupCertificate:
    """Apply the type-level generating rules; S_n only under transitivity."""
    ev = []
    for item in evidence:
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], str):
            t, src = item
        else:
            t, src = item, ""
        ev.append((_normalized_type(tuple(t), n), src))
    cert = lambda rule, concl: GroupCertificate(n, tuple(ev), rule, concl)

    if not transitive:
        return cert(None, INCONCLUSIVE)
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

