"""The benchmark's tracer wraps library functions by module binding; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_binding_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bindings = [binding for _name, names, _per_leaf, _tally in tracer.TARGETS for binding in names]
    for kept in ("oeis.is_markov", "engine.compile_expr", "engine.eval_expr", "engine.eval_expr_counted"):
        assert kept in bindings  # kept in src/ only for the tracer
    for binding in bindings:
        module_name, attr = binding.rsplit(".", 1)
        module = importlib.import_module("moessner." + module_name)
        assert callable(getattr(module, attr, None)), binding
