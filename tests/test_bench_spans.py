"""The benchmark reads public package names, by string and as attributes; each
must still resolve."""

import ast
import importlib.util
from pathlib import Path

from ionbound import alpha, beta, cli, kernels

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{name}" for module, name, *_ in tracing.SPAN_TARGETS
               if not callable(getattr(module, name, None))]
    assert tracing.SPAN_TARGETS and missing == []


def test_every_attribute_the_bench_reads_resolves():
    modules = {"alpha": alpha, "beta": beta, "cli": cli, "kernels": kernels}
    read = {(node.value.id, node.attr)
            for node in ast.walk(ast.parse(TRACING.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    missing = sorted(f"{module}.{name}" for module, name in read
                     if not hasattr(modules[module], name))
    assert read and missing == []
