"""The benchmark's span tracer wraps package names by string; each must exist."""
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"{spans.PACKAGE}.{layer}")
        for name in names:
            value = getattr(module, name, None)
            assert inspect.isfunction(value) or inspect.isclass(value), f"{layer}.{name}"
