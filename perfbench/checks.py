"""Output checks made apart from the program.

Nothing here imports hyperfield or compares against a stored copy of an
earlier output. The box and F = g^2 - f*h^2 are rebuilt with this file's
own integer arithmetic; discriminants, factorisations over Q and mod p
and Galois groups come from sympy; the S_n rules are re-checked by this
file's own reading of them. Each check returns a list of error strings,
empty when the output passes.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations

from sympy import Poly, ZZ, factorial, isprime, prime, symbols
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_monic
from sympy.polys.numberfields.galoisgroups import galois_group

from workloads import mirror, poly_mul

X = symbols("x")
REDUCIBLE, IRREDUCIBLE, SN_CERTIFIED = "REDUCIBLE", "IRREDUCIBLE_UNCERTIFIED", "SN_CERTIFIED"

# Primes used to compare splitting types; pairs of classes not told apart
# at the first CLASS_PRIMES are retried on EXTRA_PRIMES.
CLASS_PRIMES = 30
EXTRA_PRIMES = 150


# -- integer polynomials, ascending coefficient lists --------------------------------


def _trim(c: list[int]) -> list[int]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _sub(a, b) -> list[int]:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _poly(coeffs) -> Poly:
    return Poly(list(reversed(coeffs)), X, domain=ZZ)


def _is_reducible(coeffs) -> bool:
    _, factors = _poly(coeffs).factor_list()
    return sum(m for f, m in factors if f.degree() > 0) > 1


def split_type(coeffs, p: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors mod a good prime p, descending."""
    f = gf_monic([c % p for c in reversed(coeffs)], p, ZZ)[1]
    degs = []
    for g, k in gf_ddf_zassenhaus(f, p, ZZ):
        degs += [k] * ((len(g) - 1) // k)
    return tuple(sorted(degs, reverse=True))


# -- the coefficient box -----------------------------------------------------------


def _floor_power(y: Fraction, w: Fraction) -> int:
    """floor(y^w) for w an integer or half an odd integer."""
    k = int(2 * w)
    if k % 2 == 0:
        return y.numerator ** (k // 2) // y.denominator ** (k // 2)
    return math.isqrt(y.numerator**k // y.denominator**k)  # floor(sqrt(x)) = isqrt(floor(x))


def box_shape(d: int, n: int):
    """(free a weights, free b weights, g monic, h monic) of the census box.

    g has degree floor(n/2) and h degree (n-d)/2 rounded down (one less
    for even d); coefficient j of g weighs deg g - j and coefficient j of
    h weighs (n-d)/2 - j, so every term of F has height Y^n. The monic
    side is h for odd n, else g; its leading coefficient is not free.
    """
    deg_g = n // 2
    deg_h = (n - d) // 2 - (1 if d % 2 == 0 else 0)
    h_monic = n % 2 == 1
    a = [Fraction(deg_g - j) for j in range(deg_g + 1 if h_monic else deg_g)]
    b = [Fraction(n - d, 2) - j for j in range(deg_h if h_monic else deg_h + 1)]
    return a, b, not h_monic, h_monic


def box_bounds(curve, n: int, Y: Fraction):
    a, b, _, _ = box_shape(len(curve) - 1, n)
    return [_floor_power(Y, w) for w in a], [_floor_power(Y, w) for w in b]


def box_cardinality(curve, n: int, Y: Fraction) -> int:
    a, b = box_bounds(curve, n, Y)
    return math.prod(2 * v + 1 for v in a + b)


def family_member(curve, n: int, spec_a, spec_b) -> list[int]:
    _, _, g_monic, h_monic = box_shape(len(curve) - 1, n)
    g = list(spec_a) + ([1] if g_monic else [])
    h = list(spec_b) + ([1] if h_monic else [])
    return _sub(poly_mul(g, g), poly_mul(list(curve), poly_mul(h, h)))


# -- census ---------------------------------------------------------------------------


def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != "spec_a;spec_b;F_coeffs;disc_F;status;fingerprint_hash;class_id":
        raise ValueError("census CSV header missing or changed")
    rows = []
    for line in lines[1:]:
        a, b, f, disc, status, fp, cid = line.split(";")
        ints = lambda s: tuple(int(v) for v in s.split(",")) if s else ()
        rows.append({"a": ints(a), "b": ints(b), "F": ints(f), "disc": int(disc), "status": status,
                     "fp": fp, "class_id": int(cid) if cid else None})
    return rows


def check_census(inputs: dict, csv_text: str, summary: dict) -> list[str]:
    errors: list[str] = []
    curve, n, Y = tuple(inputs["curve"]), inputs["n"], Fraction(inputs["Y"])
    try:
        rows = parse_csv(csv_text)
    except ValueError as e:
        return [f"csv: {e}"]

    # Box: the rows are exactly the lattice points of the box.
    card = box_cardinality(curve, n, Y)
    counts = summary.get("counts", {})
    if len(rows) != card:
        errors.append(f"box: {len(rows)} records, expected {card}")
    if sum(counts.values()) != card or summary.get("diagnostics", {}).get("box_cardinality") != card:
        errors.append(f"box: summary counts {counts} do not sum to the cardinality {card}")
    a_bounds, b_bounds = box_bounds(curve, n, Y)
    specs = set()
    for r in rows:
        if len(r["a"]) != len(a_bounds) or len(r["b"]) != len(b_bounds) or any(
            abs(v) > m for v, m in zip(r["a"] + r["b"], a_bounds + b_bounds)
        ):
            errors.append(f"box: spec {r['a']};{r['b']} outside the box")
        specs.add((r["a"], r["b"]))
    if len(specs) != len(rows):
        errors.append("box: repeated specialization")
    want = {"reducible": REDUCIBLE, "irreducible": IRREDUCIBLE, "sn_certified": SN_CERTIFIED}
    for key, status in want.items():
        if counts.get(key) != sum(r["status"] == status for r in rows):
            errors.append(f"summary: counts[{key!r}] disagrees with the CSV")

    # Records: F rebuilt from the spec; discriminant and status from sympy.
    by_F: dict[tuple, dict] = {}
    for r in rows:
        F = tuple(family_member(curve, n, r["a"], r["b"]))
        if F != r["F"]:
            errors.append(f"record {r['a']};{r['b']}: F={r['F']} but g^2-f*h^2={F}")
            continue
        first = by_F.setdefault(F, r)
        if (first["status"], first["class_id"], first["fp"]) != (r["status"], r["class_id"], r["fp"]):
            errors.append(f"record {F}: equal F with different status, class or fingerprint")
    facts = {}
    for F in by_F:
        P = _poly(F)
        facts[F] = (int(P.discriminant()), _is_reducible(F))
    for r in rows:
        if r["F"] not in facts:
            continue
        disc, reducible = facts[r["F"]]
        if r["disc"] != disc:
            errors.append(f"record {r['F']}: disc_F {r['disc']} != {disc}")
        if (r["status"] == REDUCIBLE) != reducible or r["status"] not in want.values():
            errors.append(f"record {r['F']}: status {r['status']} but sympy finds it {'reducible' if reducible else 'irreducible'}")
        if (r["class_id"] is None) != (r["status"] == REDUCIBLE) or (not r["fp"]) != (r["status"] == REDUCIBLE):
            errors.append(f"record {r['F']}: class_id/fingerprint present iff irreducible")

    # S_n certificates: sympy's Galois group has order n! (degree <= 6).
    if n <= 6:
        for F, r in by_F.items():
            if r["status"] == SN_CERTIFIED and F in facts and not facts[F][1]:
                group, _ = galois_group(_poly(F), by_name=True)
                if group.get_perm_group().order() != factorial(n):
                    errors.append(f"record {F}: SN_CERTIFIED but the Galois group is {group.name}")

    errors += _check_classes(by_F, facts, summary, curve)
    return errors


def _good_primes(F, disc: int, count: int) -> list[int]:
    bad = F[-1] * disc
    return [p for p in (prime(i) for i in range(1, count + 1)) if bad % p]


def _types(F, disc, count):
    return {p: split_type(F, p) for p in _good_primes(F, disc, count)}


def _told_apart(t1: dict, t2: dict) -> bool:
    return any(p in t2 and t2[p] != t for p, t in t1.items())


def _check_classes(by_F, facts, summary, curve) -> list[str]:
    errors = []
    classes: dict[int, list[tuple]] = {}
    for F, r in by_F.items():
        if r["class_id"] is not None and F in facts:
            classes.setdefault(r["class_id"], []).append(F)
    if summary.get("classes") != len(classes):
        errors.append(f"classes: summary reports {summary.get('classes')}, the CSV has {len(classes)}")
    types = {F: _types(F, facts[F][0], CLASS_PRIMES) for Fs in classes.values() for F in Fs}
    for cid, Fs in classes.items():
        d0 = facts[Fs[0]][0]
        for F in Fs[1:]:
            d = facts[F][0]
            if (d > 0) != (d0 > 0) or math.isqrt(d * d0) ** 2 != d * d0:
                errors.append(f"class {cid}: Disc {F} * Disc {Fs[0]} is not a positive square")
        for F1, F2 in combinations(Fs, 2):
            if _told_apart(types[F1], types[F2]):
                errors.append(f"class {cid}: {F1} and {F2} split differently at a common good prime")
    reps = {cid: Fs[0] for cid, Fs in classes.items()}
    for c1, c2 in combinations(sorted(reps), 2):
        F1, F2 = reps[c1], reps[c2]
        if _told_apart(types[F1], types[F2]):
            continue
        if not _told_apart(_types(F1, facts[F1][0], EXTRA_PRIMES), _types(F2, facts[F2][0], EXTRA_PRIMES)):
            errors.append(f"classes {c1} and {c2}: not told apart at any of the first {EXTRA_PRIMES} primes")

    # x -> -x maps the box onto itself when f is even: F and F(-x) are
    # the same field, so they must share a class.
    if mirror(curve) == tuple(curve):
        class_of = {F: cid for cid, Fs in classes.items() for F in Fs}
        for F, cid in class_of.items():
            G = mirror(F)
            if class_of.get(G) != cid:
                errors.append(f"mirror: {F} is in class {cid} but F(-x) is in {class_of.get(G)}")
    return errors


# -- certify ----------------------------------------------------------------------------


def _usable_lengths(t) -> set[int]:
    """Cycle lengths l > 1 that a power of a permutation of type t isolates
    as a single l-cycle: l occurs once and is prime to the other parts > 1."""
    parts = [x for x in t if x > 1]
    return {l for l in parts if parts.count(l) == 1 and all(math.gcd(l, o) == 1 for o in parts if o != l)}


def rules_holding(n: int, types) -> set[str]:
    """The S_n generating rules whose premises the cycle types satisfy
    (the group is transitive: the polynomial is irreducible)."""
    usable = set().union(*map(_usable_lengths, types)) if types else set()
    out = set()
    if 2 not in usable:
        return out
    if n in usable and isprime(n):
        out.add("FULL_CYCLE+TRANSPOSITION")
    if n - 1 in usable:
        out.add("N_MINUS_1+TRANSPOSITION")
    if any(l > n / 2 and isprime(l) for l in usable):
        out.add("LONG_PRIME_CYCLE+TRANSPOSITION")
    if n >= 4 and 3 in usable and n - 2 in usable:
        out.add("N_MINUS_2+3CYCLE+TRANSPOSITION")
    return out


def check_certify(inputs: dict, rcs: list[int], stdouts: list[str], seed: int, samples: int = 4) -> list[str]:
    errors = []
    rng = random.Random(seed)
    for i, (poly, rc, out) in enumerate(zip(inputs["polys"], rcs, stdouts)):
        coeffs, family = poly["coeffs"], poly["family"]
        n = len(coeffs) - 1
        reducible = _is_reducible(coeffs)
        if (rc == 3) != reducible:
            errors.append(f"certify #{i} ({family}): exit {rc} but sympy finds it {'reducible' if reducible else 'irreducible'}")
            continue
        if rc != 0:
            continue
        try:
            cert = json.loads(out)
            evidence = [(tuple(e["cycle_type"]), int(e["source"].split("p=")[1])) for e in cert["evidence"]]
        except (ValueError, KeyError, IndexError) as e:
            errors.append(f"certify #{i}: unreadable certificate ({e})")
            continue
        if family == "radical" and cert["conclusion"] != "INCONCLUSIVE":
            errors.append(f"certify #{i}: a - x^{n} is not S_{n}, but the conclusion is {cert['conclusion']}")
        primes = [p for _, p in evidence]
        disc = int(_poly(coeffs).discriminant())
        if cert["degree"] != n or len(primes) != inputs["primes"] or primes != sorted(set(primes)):
            errors.append(f"certify #{i}: expected {inputs['primes']} distinct ascending primes for degree {n}")
        if any(not isprime(p) or (coeffs[-1] * disc) % p == 0 for p in primes):
            errors.append(f"certify #{i}: evidence at a bad prime")
            continue
        holding = rules_holding(n, [t for t, _ in evidence])
        rule, conclusion = cert["rule"], cert["conclusion"]
        if (conclusion == "SN") != (rule is not None) or (rule is not None and rule not in holding):
            errors.append(f"certify #{i}: rule {rule} does not hold on the evidence")
        if conclusion == "INCONCLUSIVE" and holding:
            errors.append(f"certify #{i}: INCONCLUSIVE although {sorted(holding)} hold")
        # Evidence: a seeded sample, plus the first type that shows each
        # usable cycle length, so every length a rule relies on is checked.
        first: dict[int, int] = {}
        for k, (t, _) in enumerate(evidence):
            for length in _usable_lengths(t):
                first.setdefault(length, k)
        for k in set(rng.sample(range(len(evidence)), min(samples, len(evidence)))) | set(first.values()):
            t, p = evidence[k]
            if tuple(sorted(t, reverse=True)) != split_type(coeffs, p):
                errors.append(f"certify #{i}: cycle type {t} at p={p}, sympy gives {split_type(coeffs, p)}")
    return errors
