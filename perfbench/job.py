"""One job in a fresh interpreter: `python job.py SPEC.json`.

The spec names a mode and the files to write:

- ``setup``: time ``import hyperfield.cli`` and the backend selection.
- ``reference``: time the host-speed loop of reference.py.
- ``census`` / ``certify``: run the workload through ``hyperfield.cli.main``
  once and report its wall time and this process's peak RSS. With
  ``trace`` set, spans are recorded around the calls into each module
  and written out when the job ends.

Nothing here checks outputs; that happens in the parent, after timing,
so the checking code (sympy) never inflates this process's memory.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def _maxrss_kb() -> int:
    """Peak RSS of this process image. ru_maxrss is not used where VmHWM
    exists: Linux carries the parent's peak into it across fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["mode"] == "reference":
        from reference import reference_seconds

        _write(spec, {"reference_s": reference_seconds()})
        return
    t0 = time.perf_counter()
    import hyperfield.cli as cli
    from hyperfield import KERNEL_BACKEND, __version__

    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "backend": KERNEL_BACKEND, "version": __version__}
    if spec["mode"] != "setup":
        tracer = None
        if spec.get("trace"):
            from trace_spans import Tracer

            tracer = Tracer()
            tracer.install()
        result.update(_run(cli, spec, tracer))
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spec["spans_out"])
    _write(spec, result)


def _write(spec: dict, result: dict) -> None:
    with open(spec["result_out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _run(cli, spec: dict, tracer) -> dict:
    inputs = spec["inputs"]
    rss_before = _maxrss_kb()
    if inputs["kind"] == "census":
        argv = [
            "census",
            "--curve", ",".join(map(str, inputs["curve"])),
            "--n", str(inputs["n"]),
            "--Y", inputs["Y"],
            "--workers", "1",
            "--out-csv", spec["csv_out"],
            "--out-json", spec["json_out"],
        ]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = _call(cli, "cli.census", argv, tracer, 0)
        wall = time.perf_counter() - t0
        out = {"rc": [rc]}
    else:
        rcs, stdouts = [], []
        t0 = time.perf_counter()
        for i, poly in enumerate(inputs["polys"]):
            argv = ["certify", "--poly", ",".join(map(str, poly["coeffs"])), "--primes", str(inputs["primes"])]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rcs.append(_call(cli, "cli.certify", argv, tracer, i))
            stdouts.append(buf.getvalue())
        wall = time.perf_counter() - t0
        out = {"rc": rcs, "stdout": stdouts}
    out.update(wall_s=wall, peak_rss_kb=_maxrss_kb(), rss_before_kb=rss_before)
    return out


def _call(cli, name: str, argv: list[str], tracer, record: int) -> int:
    if tracer is None:
        return cli.main(argv)
    tracer.record = record
    return tracer.wrap(name, cli.main)(argv)


if __name__ == "__main__":
    main(sys.argv[1])
