"""The benchmark's layer tracer wraps names bound in the package's modules;
each of them must still exist, or traced runs lose their spans."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, name, _, _ in tracing.TRACE_POINTS]


@pytest.mark.parametrize("module,name", _trace_points())
def test_trace_point_resolves(module, name):
    mod = importlib.import_module(f"localbribery.{module}")
    assert callable(getattr(mod, name, None)), f"localbribery.{module}.{name}"
