"""The benchmark's ``--trace 1`` wraps package functions by name
(``perfbench/trace_spans.WRAPPED``); each name must still resolve, so a
rename in the package cannot silently break the traced run."""
import importlib
from pathlib import Path

TRACE_SPANS = Path(__file__).parent.parent / "perfbench" / "trace_spans.py"


def test_every_wrapped_name_resolves():
    # Read the file and run it in a fresh namespace: nothing is written
    # next to it (no bytecode cache) and the module is not registered.
    namespace = {"__name__": "trace_spans"}
    exec(compile(TRACE_SPANS.read_text(encoding="utf-8"), str(TRACE_SPANS), "exec"), namespace)
    wrapped = namespace["WRAPPED"]
    assert wrapped
    for module_name, attr, *_ in wrapped:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)
