#!/usr/bin/env python3
"""ionbound benchmark: drive the CLI on one workload, check every output and
print the metrics.

Run from the repository root:

    python3 bench/run.py --workload alpha-sweep --seed 1 --seconds 36 --trace 0

Both modes pin themselves to one CPU.  With --trace 0 the workload runs as
sequential `python -m ionbound.cli` subprocesses (closed loop, one client)
and the end-to-end metrics are reported, with every call's time rescaled to
the speed of a fixed reference loop timed around and during it (see
REFERENCE_S).  With --trace 1 it runs in-process through ionbound.cli.main
with spans around each layer's public functions, followed by direct calls to
the functions below them, and the per-layer metrics are reported.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from checks import Checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = OUT / "work"

# `--version` spawns timed for setup_s before and again after the passes, so
# that the median spans the run; one untimed spawn first may compile bytecode
SETUP_SAMPLES = 5
# every run has to end within 180 s: no new pass starts after HARD_LIMIT_S,
# and a CLI call still running at RUN_LIMIT_S is killed and counted as failed
HARD_LIMIT_S = 140.0
RUN_LIMIT_S = 170.0
# The host is shared, and its speed drifts by tens of percent over tens of
# seconds, in CPU time as much as in wall time.  So the benchmark process
# times a fixed loop of small numpy work, REFERENCE_REPS times in a burst,
# before the first CLI call of a run, after every call, and every
# REFERENCE_EVERY_S while a call runs, with the call stopped (SIGSTOP) for the
# burst.  Each stretch of a call's running time is rescaled by REFERENCE_S over
# the mean of the burst medians on either side of it, which reads as seconds
# at the loop's nominal speed: REFERENCE_S is its median on a quiet 2-vCPU
# x86-64 VM with Python 3.11 and numpy 2.4.
REFERENCE_S = 5.0e-3
REFERENCE_REPS = 5
REFERENCE_EVERY_S = 0.5
REFERENCE_MATRIX = np.linspace(-1.0, 1.0, 24 * 24).reshape(24, 24) / 24
REFERENCE_NODES = np.geomspace(0.05, 20.0, 200)
STAGE_LINE = re.compile(r"^stage (\w+): ([0-9.]+)s$", re.MULTILINE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

STARTED = time.perf_counter()


@dataclass
class Exit:
    """How one CLI invocation ended; ``code`` is None when it timed out.

    ``seconds`` is spawn to exit without the stops for reference bursts, and
    ``scale`` turns it into seconds at the reference speed.
    """

    code: int | None
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str
    scale: float = 1.0


@dataclass
class Pass:
    """One pass over a workload's command sequence: (command, exit, facts) each."""

    wall: float
    runs: list = field(default_factory=list)

    @property
    def reference_wall(self) -> float:
        return self.seconds(rescaled=True)

    def seconds(self, rescaled: bool = False, kind: str | None = None) -> float:
        """Running time of the calls, or of those of one ``kind``."""
        return sum(ex.seconds * (ex.scale if rescaled else 1.0)
                   for cmd, ex, _ in self.runs if kind in (None, cmd.kind))

    def stage_seconds(self, stage: str) -> float:
        return sum(float(s) for _, ex, _ in self.runs
                   for name, s in STAGE_LINE.findall(ex.stderr) if name == stage)

    def total(self, key: str) -> float:
        return sum(facts.get(key, 0) for _, _, facts in self.runs)

    def value(self, key: str, default=None):
        return next((facts[key] for _, _, facts in self.runs if key in facts), default)

    def table_seconds(self, rescaled: bool = False) -> float:
        return sum(ex.seconds * (ex.scale if rescaled else 1.0)
                   for _, ex, facts in self.runs if "rows" in facts)


class Tally:
    """Operations attempted and failed, with every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# ---------------------------------------------------------------------------
# running the CLI
# ---------------------------------------------------------------------------

class Reference:
    """Bursts of the fixed reference loop, and the rescaling they give."""

    def __init__(self):
        self.last = self.burst()

    @staticmethod
    def burst() -> float:
        """Median seconds of the reference loop over REFERENCE_REPS repetitions."""
        samples = []
        for _ in range(REFERENCE_REPS):
            start = time.perf_counter()
            m = REFERENCE_MATRIX
            total = 0.0
            for _ in range(500):
                m = REFERENCE_MATRIX @ m
                total += float(np.exp(-REFERENCE_NODES).sum())
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    def rescale(self, seconds: float) -> float:
        """``seconds`` run since the last burst, at the reference speed; times
        the next burst."""
        burst = self.burst()
        rescaled = seconds * REFERENCE_S / ((self.last + burst) / 2)
        self.last = burst
        return rescaled


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(args, reference: Reference | None = None) -> Exit:
    """Run `python -m ionbound.cli ARGS`; time spawn to exit, peak RSS from wait4.

    With a ``reference``, the call is stopped every REFERENCE_EVERY_S for a
    reference burst, and its running time is rescaled stretch by stretch.
    """
    argv = [sys.executable, "-m", "ionbound.cli", *args]
    env = child_env()
    timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - STARTED))
    with open(WORK / "stdout.txt", "w+", encoding="utf-8") as out, \
            open(WORK / "stderr.txt", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        deadline = start + timeout
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        status = usage = None
        killed = False
        seconds = rescaled = 0.0
        mark = start  # when the current stretch of running time began
        try:
            while status is None:
                wait = deadline - time.perf_counter()
                if reference is not None:
                    wait = min(wait, REFERENCE_EVERY_S)
                exited, _, _ = select.select([pidfd], [], [], max(wait, 0.0))
                now = time.perf_counter()
                if not exited and now >= deadline:
                    killed = True
                    proc.kill()
                if exited or killed:
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                os.kill(proc.pid, signal.SIGSTOP)
                _, stopped, stopped_usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(stopped):  # it exited before the stop
                    status, usage = stopped, stopped_usage
                    break
                seconds += now - mark
                rescaled += reference.rescale(now - mark)
                os.kill(proc.pid, signal.SIGCONT)
                mark = time.perf_counter()
        except BaseException:
            if status is None:
                proc.kill()
                os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        now = time.perf_counter()
        seconds += now - mark
        if reference is not None:
            rescaled += reference.rescale(now - mark)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        code = None if killed else proc.returncode
        scale = rescaled / seconds if reference is not None else 1.0
        return Exit(code, seconds, usage.ru_maxrss / 1024.0, out.read(), err.read(), scale)


def in_process(args) -> Exit:
    """Run ionbound.cli.main(ARGS) in this process, capturing its stderr."""
    from ionbound import cli

    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(list(args))
    except Exception:  # a crash is a failed operation, not the end of the run
        err.write(traceback.format_exc())
        code = -1
    return Exit(code, time.perf_counter() - start, 0.0, "", err.getvalue())


def run_pass(workload: str, seed: int, index: int, runner, checker: Checker,
             tally: Tally) -> Pass:
    """Run one command sequence back to back, then check each output."""
    commands = workloads.sequence(workload, seed, index, WORK)
    exits = [runner(cmd.argv) for cmd in commands]
    record = Pass(wall=sum(ex.seconds for ex in exits))
    for cmd, ex in zip(commands, exits):
        problems, facts = checker.check(cmd, ex.code)
        if ex.code != cmd.expect_exit and ex.stderr:
            problems.append(f"{cmd.label} stderr: {ex.stderr.strip()[-400:]}")
        tally.record(problems)
        record.runs.append((cmd, ex, facts))
    return record


def out_of_time(start: float, seconds: int, next_pass: float = 0.0) -> bool:
    """Whether a pass expected to take ``next_pass`` seconds would end late."""
    now = time.perf_counter() + next_pass
    return now - start > seconds or now - STARTED > HARD_LIMIT_S


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def time_setup(count: int, tally: Tally, reference: Reference | None = None) -> list[Exit]:
    exits = []
    for _ in range(count):
        ex = spawn(["--version"], reference)
        tally.record([] if ex.code == 0 and ex.stdout.strip()
                     else [f"--version: exit {ex.code}: {ex.stderr.strip()[-400:]}"])
        exits.append(ex)
    return exits


def untraced_run(args, checker: Checker, tally: Tally) -> tuple[dict, dict]:
    time_setup(1, tally)
    reference = Reference()
    setup = time_setup(SETUP_SAMPLES, tally, reference)
    passes = []
    start = time.perf_counter()
    # start a pass only if one as long as the last still ends within --seconds
    while not passes or not out_of_time(start, args.seconds, last_pass):
        began = time.perf_counter()
        passes.append(run_pass(args.workload, args.seed, len(passes),
                               lambda argv: spawn(argv, reference), checker, tally))
        last_pass = time.perf_counter() - began
    setup += time_setup(SETUP_SAMPLES, tally, reference)

    calls = [ex for p in passes for _, ex, _ in p.runs]
    descents = sum(p.total("descents") for p in passes)
    rows = sum(p.total("rows") for p in passes)

    def work(rescaled: bool) -> float:
        done, seconds = {
            "alpha-sweep": (descents, sum(p.seconds(rescaled, "alpha") for p in passes)),
            "beta-bracket": (len(passes), sum(p.seconds(rescaled, "beta") for p in passes)),
            "tables": (rows, sum(p.table_seconds(rescaled) for p in passes)),
        }[args.workload]
        return _ratio(done, seconds)

    metrics = {
        "setup_s": statistics.median(ex.seconds * ex.scale for ex in setup),
        "wall_ref_s": statistics.median(p.reference_wall for p in passes),
        "work_per_ref_s": work(True),
        "peak_rss_mb": max(ex.rss_mb for p in passes for _, ex, _ in p.runs),
    }
    # figures that only some workloads have, and the unscaled timings; every
    # workload reports the uniform metrics above
    named = {
        "error_rate": (_ratio(tally.failed, tally.attempted), "1"),
        "setup_raw_s": (statistics.median(ex.seconds for ex in setup), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "work_per_s": (work(False), "1/s"),
        # how much slower than nominal the reference loop ran
        "reference_slowdown": (statistics.median(1 / ex.scale for ex in setup + calls), "1"),
    }
    if args.workload == "alpha-sweep":
        named["restarts_per_s"] = (work(False), "1/s")
        named["converged_share"] = (_ratio(sum(p.total("converged") for p in passes), descents), "1")
        named["alpha_best_mean"] = (statistics.median(p.value("best_mean", 0.0) for p in passes), "1")
    elif args.workload == "beta-bracket":
        named["beta_lower"] = (passes[-1].value("lower", 0.0), "1")
        named["beta_upper"] = (passes[-1].value("upper", 0.0), "1")
    else:
        named["rows_per_s"] = (work(False), "1/s")
    detail = {
        "named": named,
        "samples": {"setup_s": _summary([ex.seconds * ex.scale for ex in setup]),
                    "wall_ref_s": _summary([p.reference_wall for p in passes])},
        "pass_walls_s": [p.wall for p in passes],
        "pass_reference_walls_s": [p.reference_wall for p in passes],
        "command_scales": [ex.scale for ex in calls],
        "command_s": {cmd.label: [ex.seconds for p in passes for c, ex, _ in p.runs if c.label == cmd.label]
                      for cmd, _, _ in passes[0].runs},
        "setup_samples_raw_s": [ex.seconds for ex in setup],
        "cli_seeds": [workloads.cli_seed(args.seed, i) for i in range(len(passes))],
    }
    return metrics, detail


def traced_run(args, checker: Checker, tally: Tally) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import tracing  # imports ionbound, so only after src is on the path

    before = tracing.src_state(ROOT)
    start = time.perf_counter()
    passes = []
    with tracing.Tracer() as tracer:
        # leave time for the untraced pass that follows
        while not passes or not out_of_time(start - passes[-1].wall, args.seconds):
            tracer.pass_index = len(passes)
            passes.append(run_pass(args.workload, args.seed, len(passes),
                                   _counting(tracer), checker, tally))
    # the inputs of the first traced pass again, untraced, for the tracing
    # overhead; running it second keeps one-time warm-up out of the overhead
    untraced = run_pass(args.workload, args.seed, 0, in_process, checker, tally)
    metrics = tracing.layer_metrics(tracer, passes, untraced.wall)
    metrics.update(tracing.microbenchmarks(args.seed))
    after = tracing.src_state(ROOT)

    problems = []
    if before[0] or after[0]:
        problems.append(f"git status of src/ is not clean: {(before[0] or after[0]).strip()}")
    if before != after:
        problems.append("src/ changed during the traced pass")
    tally.record(problems)
    tracer.write(OUT / f"trace-{args.workload}.jsonl.gz")
    detail = {
        "named": {"error_rate": (_ratio(tally.failed, tally.attempted), "1")},
        "traced_passes": len(passes),
        "spans": len(tracer.spans),
        "cli_seeds": [workloads.cli_seed(args.seed, i) for i in range(len(passes))],
    }
    return metrics, detail


def _counting(tracer):
    def runner(argv):
        tracer.request += 1
        return in_process(argv)
    return runner


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _summary(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"n": n, "median": statistics.median(ordered)}
    if n >= 20:  # below that, the percentile would not lie above the median
        summary[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return summary


def context(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "alpha_restarts": workloads.ALPHA_RESTARTS,
    }


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must lie in 1..120")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit, so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ionbound" / "cli.py").is_file():
        sys.stderr.write(f"no ionbound sources under {SRC}; run from a checkout\n")
        return 2
    units = declared_metrics(args.trace)
    # one CPU for this process and every call it spawns, so that the reference
    # bursts time the CPU the calls run on, and nothing runs alongside a call
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    checker, tally = Checker(), Tally()
    try:
        run = traced_run if args.trace else untraced_run
        metrics, detail = run(args, checker, tally)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    print(f"ionbound benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    rows = {name: (metrics[name], units[name]) for name in units} | detail["named"]
    for name in sorted(rows):
        value, unit = rows[name]
        print(f"  {name:44s} {value:>14.7g} {unit}")
    for name, summary in detail.get("samples", {}).items():
        tail = ", ".join(f"{k} {v:.4g}" for k, v in summary.items() if k.startswith("p"))
        print(f"  {name} samples: {summary['n']}, median {summary['median']:.4g}"
              + (f", {tail}" if tail else ", too few for a tail percentile"))
    print(f"  operations failed / attempted: {tally.failed} / {tally.attempted}")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("report: " + json.dumps({"context": context(args), "detail": detail,
                                   "problems": tally.problems}))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
