"""Command-line front end: alpha, beta, bounds, verify, and report pipelines.

Exit codes: 0 on success, 2 when any verification report fails, 1 on usage or
domain errors.  All files are written atomically (write to a temp file in the
target directory, then rename), and identical configurations reproduce
byte-identical CSV/JSON outputs.  Wall-clock timings go to stderr; they are
embedded in the JSON only with --timings, since real timings would break
byte-level reproducibility.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import tempfile
import time
from typing import Callable, NamedTuple, Optional

from . import _LAYERS, DEFAULT_BETA_LOWER, MODELS, __version__, _lazy_names
from .errors import DomainError, IonboundError

# The package's public names, on the package's table.  Stage code reads each
# one as _lib.<name>, and the first read imports its layer, so a call loads
# only the layers it touches: --version, --help and malformed flags return
# before numpy loads, bounds (pure Python) never loads it, and plots loads only
# when an SVG is written.  A name rebound on this module is what the stages call.
__getattr__ = _lazy_names(globals(), _LAYERS)
_lib = sys.modules[__name__]  # this module, also when it runs as __main__


_BETA_UPPER_DEFAULT = 0.8705

# longest --n or --z range accepted; longer ones are almost surely typos
_MAX_RANGE = 1_000_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports every parse error as one line that names the (sub)command."""

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand's leftovers fail here, where its name is known
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# parsing and output helpers; each bad input raises a one-line UsageError
# ---------------------------------------------------------------------------

def _u64(text: str) -> int:
    # the length check keeps int() below its digit limit; 2^64 has 20 digits
    if not (text.isdecimal() and len(text) <= 20 and int(text) < 2**64):
        raise UsageError(f"seed must be an integer in [0, 2^64), got {text!r}")
    return int(text)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"expected a finite number, got {text!r}")
    return value


def _parse_int_range(text: str) -> list[int]:
    try:
        a, b = (int(p) for p in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"expected an integer range a:b, got {text!r}") from exc
    if b < a:
        raise UsageError(f"empty range {text!r}")
    if b - a >= _MAX_RANGE:
        raise UsageError(f"range {text!r} is longer than {_MAX_RANGE} values")
    return list(range(a, b + 1))


def _parse_float_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"expected a range a:b[:step], got {text!r}")
    a, b, step = [_finite(p) for p in parts] + [1.0] * (3 - len(parts))
    if step <= 0 or b < a:
        raise UsageError(f"empty range {text!r}")
    if not (b - a) / step < _MAX_RANGE:
        raise UsageError(f"range {text!r} is longer than {_MAX_RANGE} values")
    count = math.floor((b - a) / step + 1e-9) + 1
    return [a + i * step for i in range(count)]


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"expected lo:hi, got {text!r}")
    return _finite(parts[0]), _finite(parts[1])


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ionbound-tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IonboundError(f"cannot write {path}: {exc.strerror or exc}") from exc
    sys.stderr.write(f"wrote {path}\n")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(schema_id: str, header: str, rows: list[list]) -> str:
    # cells are Python int, float or str; str(float) is the shortest round-trip repr
    lines = [f"#schema={schema_id}", header]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# stages: flags, config echo, work, and the result's JSON, CSV and panel
# ---------------------------------------------------------------------------

class Stage(NamedTuple):
    """One pipeline stage, declared once and shared by every command that runs it.

    ``prepare`` parses and validates the arguments and returns the job, so a
    command reports every input error before any stage starts working.  It
    parses its flags before its first ``_lib`` name, so a malformed flag is
    reported before the stage's layer loads.
    """

    name: str  # stderr "stage <name>" line and JSON timings key
    key: str  # JSON results key
    flags: tuple  # (flag, add_argument options) pairs
    params: Callable  # args -> config-echo parameters
    prepare: Callable  # args -> job; job() -> result
    section: Callable  # result -> JSON results section
    csv: Optional[Callable] = None  # (result, args) -> CSV text
    panel: Optional[Callable] = None  # result -> Panel
    log: Optional[Callable] = None  # result -> None; extra stderr lines


def _echo(*names: str) -> Callable:
    return lambda args: {name: getattr(args, name) for name in names}


def _alpha_job(args):
    ns = _parse_int_range(args.n)
    if ns[0] < 2 or ns[-1] > _lib.MAX_POINT_COUNT:
        raise DomainError(f"alpha needs 2 <= N <= {_lib.MAX_POINT_COUNT}")
    settings = _lib.OptimizerSettings(restarts=args.restarts, ratio_tolerance=args.tol,
                                      seed=args.seed)
    return lambda: [_lib.estimate_alpha(n, settings) for n in ns]


def _alpha_section(estimates) -> list:
    return [
        {"N": e.n, "value": e.value, "lower_bound": e.lower_bound, "restarts": e.restarts_used,
         "converged_restarts": e.converged_restarts,
         "best_config": [list(map(float, p)) for p in e.best_config.points],
         "diagnostics": e.diagnostics}
        for e in estimates
    ]


def _log_cap_hits(estimates) -> None:
    for e in estimates:
        if e.diagnostics["cap_hits"]:
            sys.stderr.write(f"warning: N={e.n}: {e.diagnostics['cap_hits']} of "
                             f"{e.restarts_used} restarts hit the iteration cap\n")


def _alpha_csv(estimates, args) -> str:
    rows = [[e.n, e.value, e.lower_bound, e.restarts_used, e.converged_restarts] for e in estimates]
    # stochastic results always travel with their seed, on the line after the schema
    header = f"#seed={args.seed}\nN,value,lower_bound,restarts,converged_restarts"
    return _csv_text("ionbound.alpha.v1", header, rows)


def _alpha_panel(estimates) -> Panel:
    ns = [e.n for e in estimates]
    return _lib.Panel(
        "ratio estimates vs N with the two-sided band", "N", "ratio",
        series=[_lib.Series("estimate", ns, [e.value for e in estimates])],
        band=_lib.Band(ns, [e.lower_bound for e in estimates], [_BETA_UPPER_DEFAULT] * len(ns)),
    )


def _beta_job(args):
    node_range = _parse_pair(args.range)
    settings = _lib.BetaSettings(g_tolerance=args.tol, node_count=args.nodes, node_range=node_range)
    _lib.default_nodes(settings.node_count, settings.node_range)  # checked before any stage runs
    return lambda: _lib.bracket_detail(settings)


def _beta_section(b) -> dict:
    payload = {
        "lower": b.lower, "lower_source": "g_max",
        "upper": b.upper, "upper_source": b.upper_source,
        "g": {"lambda_0": b.lambda_0, "g_max": b.lower},
        "maximin": b.maximin._asdict(),  # value, gap, b_at_min
        "radial_minimum": b.radial_minimum,
        "diagnostics": b.diagnostics,
    }
    if b.certificate_measure is not None:
        payload["certificate_measure"] = {
            "nodes": [float(x) for x in b.certificate_measure.nodes],
            "weights": [float(x) for x in b.certificate_measure.weights],
        }
    return payload


def _beta_csv(b, args) -> str:
    m = b.maximin
    row = [b.lower, "g_max", b.upper, b.upper_source, b.lambda_0, b.lower,
           m.value, m.gap, b.radial_minimum]
    header = ("lower,lower_source,upper,upper_source,lambda_0,g_max,"
              "maximin,maximin_gap,radial_minimum")
    return _csv_text("ionbound.beta.v2", header, [row])


def _g_panel(detail) -> Panel:
    # the values of np.linspace(0.8, 1.0, 201), bit for bit
    lams = [0.8 + i * ((1.0 - 0.8) / 200) for i in range(200)] + [1.0]
    return _lib.Panel(
        "scalar reduction g over the blend parameter", "lambda", "g",
        series=[_lib.Series("g", lams, [_lib.g_of_lambda(l).g for l in lams])],
    )


def _bounds_rows(zs: list[float], inputs: BoundInputs) -> list[list]:
    rows = []
    for z, implicit_n in zip(zs, _lib.implicit_bound(zs, inputs.beta_lower)):
        extra = ""
        if inputs.model == "magnetic":
            extra = _lib.magnetic_bound(z, inputs)
        elif inputs.model != "nonrel":
            extra = _lib.relativistic_or_bosonic_bound(z, inputs)
        lieb, main = 2.0 * z + 1.0, inputs.coeff * z + 3.0 * z ** (1.0 / 3.0)
        # an overflowed cell would be written as CSV inf or as JSON Infinity, which is not JSON
        if not (math.isfinite(lieb) and math.isfinite(main) and math.isfinite(implicit_n)
                and (extra == "" or math.isfinite(extra))):
            raise DomainError(f"the bounds at Z = {z:g} overflow the floats")
        rows.append([z, lieb, main, implicit_n, extra])
    return rows


def _bounds_job(args):
    zs = _parse_float_range(args.z)
    if zs[0] <= 0:
        raise DomainError("Z must be positive")
    # one validated parameter set per table; nonrel reads only --beta and --coeff
    field = {} if args.model == "nonrel" else dict(B=args.B, C_universal=args.C,
                                                   C_kappa=args.Ckappa, C_2=args.C2)
    inputs = _lib.BoundInputs(model=args.model, beta_lower=args.beta, coeff=args.coeff, **field)
    return lambda: _bounds_rows(zs, inputs)


def _bounds_section(rows) -> list:
    keys = ("Z", "lieb", "main", "implicit_N")
    return [{**dict(zip(keys, r)), "model_extra": r[4] if r[4] != "" else None} for r in rows]


def _bounds_panel(rows) -> Panel:
    zs = [r[0] for r in rows]
    return _lib.Panel(
        "particle-count bounds vs nuclear charge", "Z", "bound",
        series=[
            _lib.Series("2Z+1", zs, [r[1] for r in rows]),
            _lib.Series("closed form", zs, [r[2] for r in rows]),
            _lib.Series("implicit", zs, [r[3] for r in rows]),
        ],
    )


_LEMMA_FLAGS = {
    "lemma3": ["lemma3"], "lemma4": ["lemma4"], "cubic": ["cubic-signs"],
    "all": ["lemma3", "lemma4", "cubic-signs"],
}


def _verify_grid(args) -> LemmaGrid:
    beta_range = _parse_pair(args.beta_range)  # parsed before the lemmas layer loads
    return _lib.LemmaGrid(z_points=args.grid_z, ratio_points=args.grid_ratio,
                          beta_points=args.grid_beta, beta_range=beta_range,
                          n_above=args.n_above, real_n=args.real_n)


def _verify_job(args):
    grid = _verify_grid(args)
    return lambda: [_lib.verify_lemma(lemma, grid) for lemma in _LEMMA_FLAGS[args.lemma]]


def _lemma_section(reports) -> list:
    return [
        {"lemma": r.lemma, "grid": r.grid, "min_margin": r.min_margin, "pass": r.passed,
         "witness": list(r.witness), "out_of_hypothesis": r.out_of_hypothesis}
        for r in reports
    ]


def _log_lemmas(reports) -> None:
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        sys.stderr.write(f"{r.lemma}: {status} (min margin {r.min_margin:.6g})\n")


# declared by each stage that reads them; a command declares a flag once
_SEED_FLAG = ("--seed", dict(type=_u64, default=0, help="64-bit seed for stochastic work"))
_TOL_FLAG = ("--tol", dict(type=_finite, default=1e-10, help="solver tolerance"))

ALPHA = Stage(
    "alpha", "alpha",
    flags=(
        ("--n", dict(default="2:8", help="inclusive N range a:b")),
        ("--restarts", dict(type=int, default=64)),
        _SEED_FLAG,
        _TOL_FLAG,
    ),
    params=_echo("n", "restarts"),
    prepare=_alpha_job,
    section=_alpha_section,
    csv=_alpha_csv,
    panel=_alpha_panel,
    log=_log_cap_hits,
)

BETA = Stage(
    "beta", "beta",
    flags=(
        ("--nodes", dict(type=int, default=200, help="radial node count")),
        ("--range", dict(default="0.05:20", help="node range lo:hi")),
        _TOL_FLAG,
    ),
    params=_echo("nodes", "range"),
    prepare=_beta_job,
    section=_beta_section,
    csv=_beta_csv,
    panel=_g_panel,
)

BOUNDS = Stage(
    "bounds", "bounds",
    flags=(
        ("--z", dict(default="1:118", help="charge range a:b[:step]")),
        ("--model", dict(choices=MODELS, default="nonrel")),
        ("--B", dict(type=_finite, default=0.0, help="magnetic field strength")),
        ("--coeff", dict(type=_finite, default=1.22)),
        ("--beta", dict(type=_finite, default=DEFAULT_BETA_LOWER)),
        ("--C", dict(type=_finite, default=1.0, help="universal magnetic constant")),
        ("--Ckappa", dict(type=_finite, default=1.0, help="relativistic constant")),
        ("--C2", dict(type=_finite, default=1.0, help="bosonic constant")),
    ),
    params=_echo("z", "model", "B", "coeff", "beta", "C", "Ckappa", "C2"),
    prepare=_bounds_job,
    section=_bounds_section,
    csv=lambda rows, args: _csv_text(
        "ionbound.bounds.v1", "Z,lieb,main,implicit_N,model_extra", rows),
    panel=_bounds_panel,
)

VERIFY = Stage(
    "verify", "lemmas",
    flags=(
        ("--lemma", dict(choices=tuple(_LEMMA_FLAGS), default="all")),
        ("--grid-z", dict(type=int, default=120)),
        ("--grid-ratio", dict(type=int, default=120)),
        ("--grid-beta", dict(type=int, default=1)),
        ("--beta-range", dict(default=f"{DEFAULT_BETA_LOWER}:0.99")),
        ("--n-above", dict(type=int, default=24)),
        ("--real-n", dict(
            action="store_true",
            help="also scan non-integer particle counts (flagged out-of-hypothesis)",
        )),
    ),
    params=lambda args: {"lemma": args.lemma, "grid": _verify_grid(args).as_dict()},
    prepare=_verify_job,
    section=_lemma_section,
    log=_log_lemmas,
)

def _report_check_job(args):
    return lambda: [_lib.verify_lemma(lemma) for lemma in ("lemma3", "cubic-signs")]


# report's fixed lemma check: the lemmas that pass as printed, at the default grid
REPORT_CHECK = Stage("verify", "lemmas", flags=(), params=_echo(), prepare=_report_check_job,
                     section=_lemma_section)

_SHARED_FLAGS = (
    ("--out", dict(default=None, help="output file path")),
    ("--timings", dict(
        action="store_true",
        help="embed real wall-clock timings in JSON (breaks byte reproducibility)",
    )),
)


class Command(NamedTuple):
    help: str
    stages: tuple  # run in order; their flags and config echo are concatenated
    csv: Optional[Stage]  # the stage whose CSV --format csv writes; no csv format if None
    panels: tuple  # the stages whose panels --format svg draws; no svg format if empty
    defaults: dict  # --format default, and overrides of the stages' flag defaults


_COMMANDS = {
    "alpha": Command("estimate the N-point ratio constants",
                     (ALPHA,), ALPHA, (ALPHA,), {"format": "csv"}),
    "beta": Command("bracket the statistical-limit constant",
                    (BETA,), BETA, (BETA,), {"format": "json"}),
    "bounds": Command("tabulate particle-count bounds over Z",
                      (BOUNDS,), BOUNDS, (BOUNDS,), {"format": "csv"}),
    "verify": Command("run the inequality grid verifiers", (VERIFY,), None, (), {"format": "json"}),
    "report": Command("full pipeline with machine-readable output",
                      (ALPHA, BETA, BOUNDS, REPORT_CHECK), BOUNDS, (BOUNDS, ALPHA, BETA),
                      {"format": "json", "n": "2:6", "restarts": 16, "z": "1:20"}),
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _payload(args, results: dict, timings: dict) -> dict:
    """The JSON bundle: the config that reproduces the run, plus its results."""
    stages = _COMMANDS[args.command].stages
    parameters: dict = {}
    for stage in stages:
        parameters.update(stage.params(args))
    return {
        "config": {
            "command": args.command,
            "parameters": parameters,
            **{name: getattr(args, name)
               for name in ("seed", "out", "format", "tol") if hasattr(args, name)},
        },
        "results": {stage.key: stage.section(results[stage.key]) for stage in stages},
        "timings": timings if args.timings else dict.fromkeys(timings, 0.0),
        "version": __version__,
    }


def _render(args, results: dict, timings: dict) -> str:
    command = _COMMANDS[args.command]
    if args.format == "csv":
        return command.csv.csv(results[command.csv.key], args)
    if args.format == "svg":
        return _lib.render_svg([stage.panel(results[stage.key]) for stage in command.panels])
    return _json_text(_payload(args, results, timings))


def _run(args) -> int:
    if args.timings and args.format != "json":
        raise UsageError(f"ionbound {args.command}: --timings applies to --format json only")
    stages = _COMMANDS[args.command].stages
    jobs = [stage.prepare(args) for stage in stages]
    results, timings = {}, {}
    for stage, job in zip(stages, jobs):
        t0 = time.perf_counter()
        results[stage.key] = job()
        timings[stage.name] = time.perf_counter() - t0
    for name, seconds in timings.items():
        sys.stderr.write(f"stage {name}: {seconds:.3f}s\n")
    for stage in stages:
        if stage.log is not None:
            stage.log(results[stage.key])
    if args.out:
        _atomic_write(args.out, _render(args, results, timings))
    return 0 if all(r.passed for r in results.get("lemmas", ())) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ionbound", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        p = subs.add_parser(name, help=command.help)
        flags = dict(flag for stage in command.stages for flag in stage.flags)
        for flag, options in (*flags.items(), *_SHARED_FLAGS):
            p.add_argument(flag, **options)
        formats = ("csv",) * (command.csv is not None) + ("json",) + ("svg",) * bool(command.panels)
        p.add_argument("--format", choices=formats, help="output format")
        p.set_defaults(**command.defaults)
    return parser


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 1
    except IonboundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run() -> None:
    """Process entry point: exit with main()'s code without tearing down the heap.

    gc.freeze() moves every live object out of the collector's reach, so the
    interpreter's final collections skip them and the OS reclaims the memory.
    Output files are closed by then, and stdio is still flushed at exit.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
