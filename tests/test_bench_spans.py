"""The benchmark reads public package names, by string and as attributes; each
must still resolve."""

import ast
import importlib.util
from pathlib import Path

import numpy as np

from ionbound import alpha, beta, cli, kernels

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_span_target_resolves():
    tracing = _tracing()
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


def test_the_microbenchmark_calls_run_as_the_bench_makes_them():
    # the calls of tracing.microbenchmarks, at N = 4
    tracing = _tracing()
    start = kernels.ParticleConfiguration(tracing._random_start(np.random.default_rng([1, 1]), 4))
    assert len(kernels.ratio_gradient(start)) == 4
    start_ratio = kernels.ratio_value(start).ratio
    history = []
    result = alpha.local_minimize(start, alpha.OptimizerSettings(), history)
    assert result.iterations >= len(history) - 1 >= 1 and result.converged
    assert result.value.ratio < start_ratio
