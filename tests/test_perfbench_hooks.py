"""The benchmark's tracer wraps gridcomp functions by module attribute;
a rename or a move in the package must fail here, not in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

TRACE_FIT = Path(__file__).resolve().parents[1] / "perfbench" / "trace_fit.py"


def load_trace_fit():
    spec = importlib.util.spec_from_file_location("trace_fit", TRACE_FIT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_module_attribute():
    traced = load_trace_fit().TRACED
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
