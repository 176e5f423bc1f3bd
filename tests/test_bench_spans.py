"""The benchmark spans public package names by string; each must still resolve."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{name}" for module, name, *_ in tracing.SPAN_TARGETS
               if not callable(getattr(module, name, None))]
    assert tracing.SPAN_TARGETS and missing == []
