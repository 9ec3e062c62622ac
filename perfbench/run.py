#!/usr/bin/env python3
"""hyperfield benchmark: end-to-end and per-layer metrics with output checks.

    python3 perfbench/run.py --workload census-cubic-n4 --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout (the package is imported from
``src/``). Every job is a fresh interpreter running one workload through
``hyperfield.cli.main`` with one worker; jobs repeat until ``--seconds``
have passed. Job times are averaged over the run, set-up time and memory
are medians, and times are scaled to a nominal host speed measured
between jobs (see reference.py). ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics from spans (see
trace_spans.py). The outputs of every job are checked after timing, apart
from the program (see checks.py). The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from workloads import WORKLOADS, item_count, make_inputs  # noqa: E402

SETUP_SAMPLES = 11  # at least; one more is taken after each job
JOB_TIMEOUT_S = 150
# Removed from the children's environment so the caller's shell cannot
# change what is measured: the backend choice, the census worker cap, and
# whether bytecode is cached (without the cache every child compiles the
# package on import, as an installed package never does).
SCRUBBED_ENV = ("HYPERFIELD_PURE", "HYPERFIELD_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


class JobFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def run_child(spec: dict, workdir: Path) -> dict:
    """Run job.py on `spec` in a fresh interpreter and return its result."""
    spec = dict(spec, result_out=str(workdir / "result.json"))
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "job.py"), str(spec_path)],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise JobFailed(f"job exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def run_job(inputs: dict, workdir: Path, trace: bool) -> dict:
    spec = {"mode": inputs["kind"], "inputs": inputs, "trace": trace,
            "csv_out": str(workdir / "census.csv"), "json_out": str(workdir / "census.json"),
            "spans_out": str(workdir / "spans.jsonl")}
    for name in ("census.csv", "census.json"):
        (workdir / name).unlink(missing_ok=True)
    res = run_child(spec, workdir)
    if inputs["kind"] == "census" and res["rc"] == [0]:
        res["csv"] = (workdir / "census.csv").read_text(encoding="utf-8")
        res["summary"] = json.loads((workdir / "census.json").read_text(encoding="utf-8"))
    if trace:
        from trace_spans import layer_metrics, load_spans, self_time_by_layer

        spans_path = workdir / "spans.jsonl"
        spans = load_spans(spans_path)
        res["layers"] = layer_metrics(spans, item_count(inputs))
        res["self_s"] = self_time_by_layer(spans)
    return res


def failed_ops(inputs: dict, res: dict, items: int) -> int:
    """A census that does not exit 0 fails all its records; a certify call
    fails unless it exits 0 or 3 (3 is the documented answer on a
    reducible input)."""
    if inputs["kind"] == "census":
        return 0 if res["rc"] == [0] else items
    return sum(rc not in (0, 3) for rc in res["rc"])


def outputs_of(res: dict):
    return (res.get("rc"), res.get("csv"), res.get("stdout"))


def check(inputs: dict, res: dict, seed: int) -> list[str]:
    import checks

    if inputs["kind"] == "census":
        if "csv" not in res:
            return []  # the job failed; its records are counted in `failed`
        return checks.check_census(inputs, res["csv"], res["summary"])
    return checks.check_certify(inputs, res["rc"], res["stdout"], seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hyperfield" / "cli.py").is_file():
        print(f"error: no hyperfield source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    inputs = make_inputs(args.workload, args.seed)
    items = item_count(inputs)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setup: list[float] = []
        ref: list[float] = []
        if not args.trace:
            run_child({"mode": "setup"}, workdir)  # warm-up: bytecode caches
        jobs: list[dict] = []
        start = time.perf_counter()
        # A traced run alternates untraced and traced jobs; the difference
        # of their mean times is the tracing overhead. An untraced run
        # times set-up and the reference loop once after each job, so that
        # their samples span the whole run rather than one moment of the
        # host's load.
        while not jobs or time.perf_counter() - start < args.seconds or (args.trace and len(jobs) < 2):
            jobs.append(run_job(inputs, workdir, trace=bool(args.trace) and len(jobs) % 2 == 1))
            if not args.trace:
                setup.append(run_child({"mode": "setup"}, workdir)["setup_s"])
                ref.append(run_child({"mode": "reference"}, workdir)["reference_s"])
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(run_child({"mode": "setup"}, workdir)["setup_s"])
        if args.trace:
            shutil.copyfile(workdir / "spans.jsonl", OUT / f"spans-{args.workload}.jsonl")
        errors = check(inputs, jobs[0], args.seed)
        if any(outputs_of(j) != outputs_of(jobs[0]) for j in jobs[1:]):
            errors.append("outputs differ between repetitions of the same job")
    except (JobFailed, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = items * len(jobs)
    failed = sum(failed_ops(inputs, j, items) for j in jobs)
    plain = [j for j in jobs if "layers" not in j]
    # The mean job time, i.e. the run's total job time over its jobs. The
    # host alternates between fast and slow spells of a few seconds; the
    # median of a run's jobs jumps between the two where the mean moves
    # with the share of time spent in each.
    wall = statistics.fmean(j["wall_s"] for j in plain)
    if args.trace:
        traced = [j for j in jobs if "layers" in j]
        metrics = {name: statistics.median(j["layers"][name] for j in traced) for name in traced[0]["layers"]}
        metrics["census.rss_per_record_kb"] = (
            statistics.median((j["peak_rss_kb"] - j["rss_before_kb"]) / items for j in plain)
            if inputs["kind"] == "census" else 0.0
        )
        metrics["trace.overhead_s"] = statistics.fmean(j["wall_s"] for j in traced) - wall
        units = layer_units()
        if set(metrics) != set(units):
            print(f"error: traced metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
            return 1
        metrics = {name: metrics[name] for name in units}
        self_times = {layer: statistics.median(j["self_s"].get(layer, 0.0) for j in traced) for layer in traced[0]["self_s"]}
    else:
        # Times are scaled to the host speed at which a reference round
        # takes NOMINAL_ROUND_S (see reference.py): the host's speed drifts
        # by a third from minute to minute, the program's cost does not.
        ref_mean = statistics.fmean(ref)
        nominal = reference.ROUNDS * reference.NOMINAL_ROUND_S
        scale = nominal / ref_mean
        host_line = (f"host: reference loop {ref_mean:.4f} s (nominal {nominal:.4f} s), "
                     f"unscaled setup_s {statistics.median(setup):.6g} s, wall_s {wall:.6g} s")
        metrics = {
            "setup_s": statistics.median(setup) * scale,
            "wall_s": wall * scale,
            "items_per_s": items / (wall * scale),
            "peak_rss_mb": statistics.median(j["peak_rss_kb"] for j in plain) / 1024,
        }
        units = END_TO_END

    print(f"workload={args.workload} seed={args.seed} backend={jobs[0]['backend']} version={jobs[0]['version']} "
          f"python={sys.version.split()[0]} nproc={len(os.sched_getaffinity(0))} jobs={len(jobs)} items_per_job={items}")
    if args.trace:
        top = sorted(self_times.items(), key=lambda kv: -kv[1])[:6]
        print("self time by layer: " + ", ".join(f"{layer} {t:.3f} s" for layer, t in top))
    else:
        print(host_line)
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
