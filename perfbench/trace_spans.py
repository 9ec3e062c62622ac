"""Spans around the calls into each module of hyperfield, and the per-layer
metrics computed from them.

A span is (name, start_ns, end_ns, parent index, record id, info); the
record id numbers census records (-1 outside one) or certify calls. Each
wrapped name is replaced where the caller looks it up, so the span name
says who called: ``census.discriminant`` and ``factor.discriminant`` are
the same function reached from two modules. Stages with no public entry
are wrapped at the module-level function the census calls
(``_class_groups``, ``_resultant_in_x``). Spans stay in memory and are
written out when the job ends.

If one of these names is renamed or moved in the package, update
WRAPPED (``install`` fails loudly on a missing name).
"""
from __future__ import annotations

import importlib
import json
import statistics
from time import perf_counter_ns

# (module where the caller looks the name up, attribute, span name, info)
# `info` turns the return value into what the metrics need.
WRAPPED = [
    ("hyperfield._kernels", "ddf_degrees", "kernels.ddf_degrees", None),
    ("hyperfield.census", "discriminant", "census.discriminant", None),
    ("hyperfield.factor", "discriminant", "factor.discriminant", None),
    ("hyperfield.intpoly", "resultant", "intpoly.resultant", None),
    ("hyperfield.census", "factor_over_q", "census.factor_over_q", "factors"),
    ("hyperfield.cli", "factor_over_q", "cli.factor_over_q", "factors"),
    ("hyperfield.perms", "factor_mod_p", "perms.factor_mod_p", None),
    ("hyperfield.factor", "hensel_lift_factors", "factor.hensel_lift_factors", None),
    ("hyperfield.census", "newton_polygon", "census.newton_polygon", None),
    ("hyperfield.census", "recognize_sn", "census.recognize_sn", "rule"),
    ("hyperfield.cli", "recognize_sn", "cli.recognize_sn", "rule"),
    ("hyperfield.census", "build_family_member", "census.build_family_member", None),
    ("hyperfield.census", "classify_record", "census.classify_record", "record"),
    ("hyperfield.census", "_class_groups", "census.class_groups", None),
    ("hyperfield.census", "isomorphic_exact", "census.isomorphic_exact", "bool"),
    ("hyperfield.census", "_resultant_in_x", "census.resultant_in_x", None),
]


def _info(kind, out):
    if kind == "factors":
        return sum(1 for f in out if f.degree > 0)
    if kind == "rule":
        return out.rule
    if kind == "record":
        return [out.status, out.no_point, out.disc_F == 0]
    if kind == "bool":
        return bool(out)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.record = 0
        self._records = 0
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, info_kind=None):
        spans, stack = self.spans, self.stack
        is_record = info_kind == "record"

        def wrapper(*args, **kwargs):
            if is_record:
                self.record = self._records
                self._records += 1
            span = [name, 0, 0, stack[-1] if stack else -1, self.record, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
                if is_record:
                    self.record = -1
            if info_kind is not None:
                span[5] = _info(info_kind, out)
            return out

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, info_kind in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)  # AttributeError: WRAPPED is stale
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, info_kind))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# -- per-layer metrics -----------------------------------------------------------

# layer metric prefix -> span names (the same function reached from each caller)
LAYERS = {
    "kernels.ddf_degrees": ("kernels.ddf_degrees",),
    "intpoly.discriminant": ("census.discriminant", "factor.discriminant"),
    "intpoly.resultant": ("intpoly.resultant",),
    "factor.factor_over_q": ("census.factor_over_q", "cli.factor_over_q"),
    "factor.factor_mod_p": ("perms.factor_mod_p",),
    "factor.hensel_lift_factors": ("factor.hensel_lift_factors",),
    "newton.newton_polygon": ("census.newton_polygon",),
    "perms.recognize_sn": ("census.recognize_sn", "cli.recognize_sn"),
    "family.build_family_member": ("census.build_family_member",),
    "census.classify_record": ("census.classify_record",),
    "census.class_groups": ("census.class_groups",),
    "census.isomorphic_exact": ("census.isomorphic_exact",),
    "census.resultant_in_x": ("census.resultant_in_x",),
}

RULES = {
    "FULL_CYCLE+TRANSPOSITION": "full_cycle",
    "N_MINUS_1+TRANSPOSITION": "n_minus_1",
    "LONG_PRIME_CYCLE+TRANSPOSITION": "long_prime",
    "N_MINUS_2+3CYCLE+TRANSPOSITION": "even",
    None: "none",
}

DECISIONS = ("h_zero", "disc_zero", "ddf", "newton", "zassenhaus")


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


_PREFIX = {name: prefix for prefix, group in LAYERS.items() for name in group}


def _layer_of(name: str) -> str:
    return _PREFIX.get(name, name.split(".")[0])  # cli.census / cli.certify: the CLI's own work


def self_time_by_layer(spans: list[list]) -> dict[str, float]:
    """Seconds spent in each layer outside the wrapped calls it makes; a
    resultant taken inside a discriminant counts as the discriminant's."""
    layers = [_layer_of(s[0]) for s in spans]
    for i, s in enumerate(spans):
        if layers[i] == "intpoly.resultant" and s[3] != -1 and layers[s[3]] == "intpoly.discriminant":
            layers[i] = "intpoly.discriminant"
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        d = (s[2] - s[1]) / 1e9
        out[layers[i]] = out.get(layers[i], 0.0) + d
        if s[3] != -1:
            out[layers[s[3]]] -= d
    return out


def layer_metrics(spans: list[list], items: int) -> dict[str, float]:
    """Per-layer metrics of one traced job (`items` records or polynomials).

    `X.s` sums the spans of X not nested in another span of X (recursion
    counts once); `X.self_s` subtracts the time of direct children.
    Resultants taken inside a discriminant belong to the discriminant, so
    `intpoly.resultant` counts only the other calls.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)

    def dur(i):
        return (spans[i][2] - spans[i][1]) / 1e9

    def nested_in_same(i):
        prefix, p = _PREFIX.get(spans[i][0]), spans[i][3]
        while p != -1:
            if _PREFIX.get(spans[p][0]) == prefix:
                return True
            p = spans[p][3]
        return False

    by_layer: dict[str, list[int]] = {prefix: [] for prefix in LAYERS}
    for i, s in enumerate(spans):
        prefix = _PREFIX.get(s[0])
        if prefix is None or nested_in_same(i):
            continue
        if prefix == "intpoly.resultant" and s[3] != -1 and _PREFIX.get(spans[s[3]][0]) == "intpoly.discriminant":
            continue
        by_layer[prefix].append(i)

    m: dict[str, float] = {}

    def calls_and_s(prefix):
        m[f"{prefix}.calls"] = len(by_layer[prefix])
        m[f"{prefix}.s"] = sum(dur(i) for i in by_layer[prefix])

    def self_s(prefix):
        return sum(dur(i) - sum(dur(c) for c in children.get(i, ())) for i in by_layer[prefix])

    for prefix in ("kernels.ddf_degrees", "intpoly.discriminant", "intpoly.resultant", "factor.factor_over_q",
                   "factor.factor_mod_p", "factor.hensel_lift_factors", "newton.newton_polygon",
                   "perms.recognize_sn", "family.build_family_member", "census.isomorphic_exact"):
        calls_and_s(prefix)
    m["kernels.ddf_degrees.calls_per_item"] = m["kernels.ddf_degrees.calls"] / items
    fq = by_layer["factor.factor_over_q"]
    m["factor.factor_over_q.irreducible_ratio"] = sum(spans[i][5] == 1 for i in fq) / len(fq) if fq else 0.0

    rules = {v: 0 for v in RULES.values()}
    for i in by_layer["perms.recognize_sn"]:
        rules[RULES[spans[i][5]]] += 1
    for label, count in rules.items():
        m[f"perms.rule.{label}"] = count

    records = by_layer["census.classify_record"]
    durations_ms = [dur(i) * 1e3 for i in records]
    m["census.classify_record.self_s"] = self_s("census.classify_record")
    m["census.classify_record.p50_ms"] = _percentile(durations_ms, 50)
    m["census.classify_record.p99_ms"] = _percentile(durations_ms, 99)
    decided = {k: 0 for k in DECISIONS}
    for i in records:
        status, no_point, disc_zero = spans[i][5]
        kids = {spans[c][0] for c in children.get(i, ())}
        if no_point:
            decided["h_zero"] += 1
        elif disc_zero:
            decided["disc_zero"] += 1
        elif "census.factor_over_q" in kids:
            decided["zassenhaus"] += 1
        elif "census.newton_polygon" in kids:
            decided["newton"] += 1
        else:
            decided["ddf"] += 1
    for k, v in decided.items():
        m[f"census.decided.{k}"] = v

    m["census.class_groups.s"] = sum(dur(i) for i in by_layer["census.class_groups"])
    iso = by_layer["census.isomorphic_exact"]
    m["census.isomorphic_exact.true_ratio"] = sum(bool(spans[i][5]) for i in iso) / len(iso) if iso else 0.0
    m["census.isomorphic_exact.shifts_per_call"] = len(by_layer["census.resultant_in_x"]) / len(iso) if iso else 0.0
    m["census.resultant_in_x.self_s"] = self_s("census.resultant_in_x")

    certify_ms = [dur(i) * 1e3 for i, s in enumerate(spans) if s[0] == "cli.certify"]
    m["cli.certify.p50_ms"] = _percentile(certify_ms, 50)
    m["cli.certify.p90_ms"] = _percentile(certify_ms, 90)
    return m
