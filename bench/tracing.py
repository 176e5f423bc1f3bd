"""Per-layer measurement: spans around the CLI's calls into each layer, and
direct timing of the public functions that sit below those spans.

Spans are recorded from the benchmark's own files by rebinding, for the length
of the traced pass, the public names that ionbound.cli and ionbound.beta look
up at call time.  The package is not edited, and no private (underscore) name
is called or rebound.  Import this module only with the checkout's src on
sys.path.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import statistics
import subprocess
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from ionbound import alpha, beta, cli, kernels

# (module, public name, layer, label of a call from its positional args or None)
SPAN_TARGETS = (
    (cli, "main", "cli", None),
    (cli, "estimate_alpha", "alpha", lambda args: f"n{args[0]}"),
    (cli, "bracket_detail", "beta", None),
    (beta, "maximize_g", "beta", None),
    (beta, "w_maximin", "beta", None),
    (beta, "minimize_radial_ratio", "beta", None),
    (cli, "bound_row", "bounds", None),
    (cli, "magnetic_bound", "bounds", None),
    (cli, "relativistic_or_bosonic_bound", "bounds", None),
    (cli, "verify_lemma", "bounds", lambda args: args[0]),
    (cli, "render_svg", "plots", None),
)
SPANNED_LAYERS = ("cli", "alpha", "beta", "bounds", "plots")
STAGES = ("alpha", "beta", "bounds", "verify")
LEMMAS = ("lemma3", "lemma4", "cubic-signs")
PER_CALL = ("bound_row", "magnetic_bound", "relativistic_or_bosonic_bound")

GRADIENT_SIZES = (4, 8, 12, 24)
VALUE_SIZES = (12, 24)
DESCENT_SIZES = (8, 12)
DESCENT_STARTS = 8
BASIN_TIE = 1e-9
MICRO_BUDGET_S = 0.15


class Tracer:
    """Context manager that records spans while the public names are rebound.

    A span is [pass, request, name, layer, label, parent, start, end], where
    ``request`` numbers the CLI invocations and ``parent`` is the index of the
    enclosing span or None.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.pass_index = 0
        self.request = 0
        self.outer_steps: dict[int, int] = defaultdict(int)
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        minimize = beta.minimize_radial_ratio

        def minimize_counting_steps(nodes=None, settings=None, history=None):
            steps = [] if history is None else history
            try:
                return minimize(nodes, settings, steps)
            finally:
                # history holds the start ratio and one ratio per outer step
                self.outer_steps[self.pass_index] += max(len(steps) - 1, 0)

        self._bind(beta, "minimize_radial_ratio", minimize_counting_steps)
        for module, name, layer, label in SPAN_TARGETS:
            self._wrap(module, name, layer, label)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        return False

    def _bind(self, module, name, replacement):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def _wrap(self, module, name, layer, label):
        original = getattr(module, name)
        spans, open_spans = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [self.pass_index, self.request, name, layer,
                    label(args) if label else None,
                    open_spans[-1] if open_spans else None, time.perf_counter(), None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[7] = time.perf_counter()
                open_spans.pop()

        self._bind(module, name, traced)

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, times in ns from the first span."""
        t0 = self.spans[0][6] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for p, request, name, layer, label, parent, start, end in self.spans:
                row = [p, request, name, layer, label, parent,
                       round((start - t0) * 1e9), round((end - t0) * 1e9)]
                fh.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer, passes: list, untraced_wall: float) -> dict:
    """Per-layer metrics of the traced passes; layers a workload leaves idle read 0."""
    child_time = defaultdict(float)
    for p, _, _, _, _, parent, start, end in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start

    per_pass = []
    for index, record in enumerate(passes):
        m = defaultdict(float)
        for i, (p, _, name, layer, label, _, start, end) in enumerate(tracer.spans):
            if p != index:
                continue
            duration = end - start
            m[f"{layer}.self_s"] += duration - child_time[i]
            if name == "estimate_alpha":
                m[f"alpha.estimate_alpha_s.{label}"] += duration
            elif name == "verify_lemma":
                m[f"bounds.verify_lemma_ms.{label}"] += duration * 1e3
            elif name in ("bracket_detail", "minimize_radial_ratio"):
                m[f"beta.{name}_s"] += duration
            elif name in ("w_maximin", "maximize_g", "render_svg"):
                m[f"{layer}.{name}_ms"] += duration * 1e3
        for stage in STAGES:
            m[f"cli.stage_s.{stage}"] = record.stage_seconds(stage)
        descents = record.total("descents")
        m["cli.output_bytes"] = record.total("bytes")
        m["beta.dinkelbach_outer_steps"] = tracer.outer_steps[index]
        m["alpha.converged_share"] = _ratio(record.total("converged"), descents)
        alpha_s = sum(v for k, v in m.items() if k.startswith("alpha.estimate_alpha_s."))
        m["alpha.restarts_per_s"] = _ratio(descents, alpha_s)
        m["alpha.best_mean"] = record.value("best_mean", 0.0)
        m["beta.lower"] = record.value("lower", 0.0)
        m["beta.upper"] = record.value("upper", 0.0)
        m["bounds.rows_per_s"] = _ratio(record.total("rows"), record.table_seconds())
        per_pass.append(m)

    names = set().union(*per_pass)
    names |= {f"alpha.estimate_alpha_s.n{n}" for n in range(2, 13)}
    names |= {f"bounds.verify_lemma_ms.{lemma}" for lemma in LEMMAS}
    names |= {f"{layer}.self_s" for layer in SPANNED_LAYERS}
    names |= {"beta.bracket_detail_s", "beta.minimize_radial_ratio_s", "beta.w_maximin_ms",
              "beta.maximize_g_ms", "plots.render_svg_ms"}
    metrics = {name: statistics.median(m.get(name, 0.0) for m in per_pass) for name in names}

    calls = defaultdict(list)
    for _, _, name, _, _, _, start, end in tracer.spans:
        if name in PER_CALL:
            calls[name].append(end - start)
    for name in PER_CALL:
        metrics[f"bounds.{name}_us"] = statistics.median(calls[name]) * 1e6 if calls[name] else 0.0

    metrics["trace.wall_s"] = passes[0].wall
    metrics["trace.overhead_s"] = passes[0].wall - untraced_wall
    return metrics


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ---------------------------------------------------------------------------
# direct calls to the public functions below the spans
# ---------------------------------------------------------------------------

def microbenchmarks(seed: int) -> dict:
    """Time the kernels, the simplex projection, the radial ratio and single
    descents on inputs drawn from ``seed``."""
    rng = np.random.default_rng([seed, 1])
    m = {}
    for n in GRADIENT_SIZES:
        config = kernels.ParticleConfiguration(_random_start(rng, n))
        m[f"kernels.ratio_gradient_us.n{n}"] = _per_call_us(lambda: kernels.ratio_gradient(config))
        if n in VALUE_SIZES:
            m[f"kernels.ratio_value_us.n{n}"] = _per_call_us(lambda: kernels.ratio_value(config))

    nodes = np.geomspace(0.05, 20.0, 200)
    weights = rng.dirichlet(np.ones(nodes.size))
    measure = beta.RadialMeasure(nodes, weights)
    m["beta.radial_ratio_us.n200"] = _per_call_us(lambda: beta.radial_ratio(measure))
    # a projected-gradient step lands near, not on, the simplex
    step = weights + rng.normal(0.0, 1.0 / nodes.size, nodes.size)
    m["beta.project_to_simplex_us.n200"] = _per_call_us(lambda: beta.project_to_simplex(step))

    settings = alpha.OptimizerSettings()  # the CLI's descent settings
    for n in DESCENT_SIZES:
        runs = []
        for _ in range(DESCENT_STARTS):
            start = kernels.ParticleConfiguration(_random_start(rng, n))
            history = []
            t0 = time.perf_counter()
            result = alpha.local_minimize(start, settings, history)
            runs.append((time.perf_counter() - t0, result, len(history) - 1))
        seconds = [t for t, _, _ in runs]
        iterations = [r.iterations for _, r, _ in runs]
        m[f"alpha.local_minimize_ms.n{n}"] = statistics.median(seconds) * 1e3
        m[f"alpha.iterations_per_restart.n{n}"] = statistics.fmean(iterations)
        if n == 12:
            values = [r.value.ratio for _, r, _ in runs]
            converged = sum(r.converged for _, r, _ in runs)
            m["alpha.us_per_iteration.n12"] = sum(seconds) / sum(iterations) * 1e6
            m["alpha.accepted_steps_per_restart.n12"] = statistics.fmean(a for _, _, a in runs)
            m["alpha.cap_hits.n12"] = len(runs) - converged
            m["alpha.converged_share.n12"] = converged / len(runs)
            m["alpha.basin_hits.n12"] = sum(v <= min(values) + BASIN_TIE for v in values)
    return m


def _random_start(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform directions with radii uniform in [0.2, 1.8], as the CLI starts descents."""
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rng.uniform(0.2, 1.8, size=n)[:, None]


def _per_call_us(fn) -> float:
    """Median per-call time over batches of about 2 ms or more, in microseconds."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= 2e-3:
            break
        reps *= 2
    samples = []
    deadline = time.perf_counter() + MICRO_BUDGET_S
    while len(samples) < 5 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples) * 1e6


# ---------------------------------------------------------------------------
# the traced pass must leave src/ as it found it
# ---------------------------------------------------------------------------

def src_state(root: Path) -> tuple[str | None, str]:
    """`git status --porcelain -- src` when root is a git work tree (else None),
    and a digest of every file under src outside __pycache__."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return _git_status(root), digest.hexdigest()


def _git_status(root: Path) -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=60)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root.resolve():
            return None
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                                capture_output=True, text=True, timeout=60, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return status.stdout
