"""The benchmark's own tests: every workload at a seconds-long smoke size
passes the checks, and each check rejects a deliberately corrupted output.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from trace_spans import DECISIONS, LAYERS, WRAPPED  # noqa: E402
from workloads import WORKLOADS, item_count, make_inputs  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One job of each workload at smoke size: (inputs, result)."""
    out = {}
    for name in WORKLOADS:
        inputs = make_inputs(name, SEED, smoke=True)
        out[name] = (inputs, run.run_job(inputs, tmp_path_factory.mktemp(name), trace=False))
    return out


def _census_errors(inputs, res, csv_text=None):
    return checks.check_census(inputs, csv_text if csv_text is not None else res["csv"], res["summary"])


def _replace_row(csv_text: str, index: int, **fields) -> str:
    lines = csv_text.splitlines()
    cols = lines[index + 1].split(";")
    names = ["spec_a", "spec_b", "F_coeffs", "disc_F", "status", "fingerprint_hash", "class_id"]
    for key, value in fields.items():
        cols[names.index(key)] = value
    lines[index + 1] = ";".join(cols)
    return "\n".join(lines) + "\n"


def test_benchmark_json_lists_the_workloads_and_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    prefixes = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
    assert set(LAYERS) <= prefixes


def test_wrapped_names_exist_in_the_package():
    import importlib

    for module, attr, _, _ in WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_outputs_pass_the_checks(smoke, name):
    inputs, res = smoke[name]
    assert run.failed_ops(inputs, res, item_count(inputs)) == 0
    assert run.check(inputs, res, SEED) == []


def test_box_cardinality_matches_the_census_summary(smoke):
    for name in ("census-cubic-n4", "census-quartic-iso"):
        inputs, res = smoke[name]
        assert res["summary"]["diagnostics"]["box_cardinality"] == item_count(inputs)


def test_flipped_status_is_rejected(smoke):
    inputs, res = smoke["census-cubic-n4"]
    rows = checks.parse_csv(res["csv"])
    i = next(k for k, r in enumerate(rows) if r["status"] == checks.SN_CERTIFIED)
    assert _census_errors(inputs, res, _replace_row(res["csv"], i, status=checks.IRREDUCIBLE))  # counts disagree
    j = next(k for k, r in enumerate(rows) if r["status"] == checks.REDUCIBLE and r["b"] != (0,))
    flipped = _replace_row(res["csv"], j, status=checks.SN_CERTIFIED, fingerprint_hash="0", class_id="0")
    errors = _census_errors(inputs, res, flipped)
    assert any("sympy finds it reducible" in e for e in errors)


def test_swapped_class_id_is_rejected(smoke):
    inputs, res = smoke["census-quartic-iso"]
    rows = checks.parse_csv(res["csv"])
    sizes: dict[int, set] = {}
    for r in rows:
        if r["class_id"] is not None:
            sizes.setdefault(r["class_id"], set()).add(r["F"])
    big = next(cid for cid, Fs in sizes.items() if len(Fs) > 1)
    i = next(k for k, r in enumerate(rows) if r["class_id"] == big)
    j = next(k for k, r in enumerate(rows) if r["class_id"] not in (None, big))
    swapped = _replace_row(res["csv"], i, class_id=str(rows[j]["class_id"]))
    swapped = _replace_row(swapped, j, class_id=str(big))
    errors = _census_errors(inputs, res, swapped)
    assert any(e.startswith(("class", "mirror", "record")) for e in errors), errors


def test_altered_coefficient_of_F_is_rejected(smoke):
    inputs, res = smoke["census-cubic-n4"]
    rows = checks.parse_csv(res["csv"])
    F = list(rows[5]["F"])
    F[0] += 1
    errors = _census_errors(inputs, res, _replace_row(res["csv"], 5, F_coeffs=",".join(map(str, F))))
    assert any("g^2-f*h^2" in e for e in errors)


def test_wrong_exit_code_is_rejected(smoke):
    inputs, res = smoke["certify-batch"]
    for i, rc in enumerate(res["rc"]):
        rcs, outs = list(res["rc"]), list(res["stdout"])
        rcs[i] = 3 if rc == 0 else 0
        outs[i] = "" if rc == 0 else outs[i]
        errors = checks.check_certify(inputs, rcs, outs, SEED)
        assert any(f"certify #{i}" in e for e in errors), (i, rc)


def test_false_sn_certificate_is_rejected(smoke):
    inputs, res = smoke["certify-batch"]
    i = next(k for k, p in enumerate(inputs["polys"]) if p["family"] == "radical")
    cert = json.loads(res["stdout"][i])
    cert.update(conclusion="SN", rule="N_MINUS_1+TRANSPOSITION")
    outs = list(res["stdout"])
    outs[i] = json.dumps(cert)
    errors = checks.check_certify(inputs, res["rc"], outs, SEED)
    assert any("is not S_" in e for e in errors) and any("does not hold" in e for e in errors)


def test_traced_job_reports_every_layer(tmp_path):
    inputs = make_inputs("census-cubic-n4", SEED, smoke=True)
    res = run.run_job(inputs, tmp_path, trace=True)
    layers = res["layers"]
    assert layers["kernels.ddf_degrees.calls"] > 0 and layers["family.build_family_member.calls"] == item_count(inputs)
    assert sum(layers[f"census.decided.{k}"] for k in DECISIONS) == item_count(inputs)
    assert max(res["self_s"], key=res["self_s"].get) == "kernels.ddf_degrees"


def test_reference_loop_computes_powers_modulo_f_and_p(tmp_path):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    import reference

    modulus = list(reversed(reference._F))  # galoistools: highest degree first
    for r in (0, 5, 999):
        got = reference._x_power(r)
        while got and got[-1] == 0:
            got.pop()
        assert got[::-1] == gf_pow_mod([1, r], reference._P, modulus, reference._P, ZZ)
    assert run.run_child({"mode": "reference"}, tmp_path)["reference_s"] > 0
