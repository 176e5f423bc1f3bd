"""Command sequences of the three benchmark workloads.

A workload is a list of `ionbound` CLI invocations that run.py runs one
after another, each waiting for the previous one (closed loop, one client).
README.md records why each workload exists and which layer metrics should
move which end-to-end metric on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Restarts per N in alpha-sweep: one sequence takes about 2.7 s on one CPU, so a
# 36 s run times about twelve sequences, each with its own CLI seed.
ALPHA_RESTARTS = 2
ALPHA_NS = tuple(range(2, 13))

TABLE_Z = "1:118:0.01"
SMALL_Z = "1:118:0.1"
FIELD = 10.0
# (--model value, --B value or None)
TABLE_MODELS = (
    ("nonrel", None),
    ("magnetic", FIELD),
    ("relativistic", None),
    ("bosonic", FIELD),
)
VERIFY_GRID = ("--grid-z", "1000", "--grid-ratio", "1000", "--grid-beta", "4")

NAMES = ("alpha-sweep", "beta-bracket", "tables")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output is checked as.

    ``kind`` selects the checker: alpha, beta, bounds-csv, bounds-json, svg
    or verify.  ``deterministic`` outputs must repeat exactly within a run.
    """

    label: str
    kind: str
    argv: tuple
    out: Path
    expect_exit: int = 0
    deterministic: bool = True
    model: str = "nonrel"
    field: float = 0.0
    z_range: str = ""


def cli_seed(seed: int, index: int) -> int:
    """CLI seed of sequence ``index`` in a run with workload seed ``seed``."""
    return seed * 2**20 + index


def sequence(workload: str, seed: int, index: int, work: Path) -> list[Command]:
    """The commands of one pass over ``workload``, writing into ``work``."""
    if workload == "alpha-sweep":
        out = work / "alpha.json"
        argv = (
            "alpha", "--n", f"{ALPHA_NS[0]}:{ALPHA_NS[-1]}",
            "--restarts", str(ALPHA_RESTARTS), "--seed", str(cli_seed(seed, index)),
            "--format", "json", "--out", str(out),
        )
        return [Command("alpha", "alpha", argv, out, deterministic=False)]
    if workload == "beta-bracket":
        # the defaults: 200 nodes on 0.05:20, lambda grid 101; no seed is used
        out = work / "beta.json"
        return [Command("beta", "beta", ("beta", "--format", "json", "--out", str(out)), out)]
    if workload == "tables":
        commands = []
        for model, field in TABLE_MODELS:
            out = work / f"bounds-{model}.csv"
            argv = ("bounds", "--z", TABLE_Z, "--model", model)
            if field is not None:
                argv += ("--B", repr(field))
            argv += ("--format", "csv", "--out", str(out))
            commands.append(
                Command(f"bounds-{model}", "bounds-csv", argv, out,
                        model=model, field=field or 0.0, z_range=TABLE_Z)
            )
        out = work / "bounds.json"
        commands.append(Command(
            "bounds-json", "bounds-json",
            ("bounds", "--z", SMALL_Z, "--format", "json", "--out", str(out)),
            out, z_range=SMALL_Z,
        ))
        out = work / "bounds.svg"
        commands.append(Command(
            "bounds-svg", "svg",
            ("bounds", "--z", SMALL_Z, "--format", "svg", "--out", str(out)), out,
        ))
        out = work / "verify.json"
        # exit 2 is the documented outcome: lemma4, read as printed, fails
        commands.append(Command(
            "verify", "verify",
            ("verify", "--lemma", "all", "--real-n", *VERIFY_GRID, "--out", str(out)),
            out, expect_exit=2,
        ))
        return commands
    raise ValueError(f"unknown workload {workload!r}")
