"""Independent checks of every output the benchmark's CLI runs produce.

Nothing here imports ionbound: ratios are recomputed with the benchmark's own
numpy code, bound tables from their closed forms, and the implicit bound with
scipy's Brent root finder as an oracle.  A checker returns the list of checks
that failed (empty when the output is correct) and the numbers the metrics
need.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy.optimize import brentq

from workloads import ALPHA_NS, ALPHA_RESTARTS, Command

# headline bracket of the seed commit, reproduced to 1e-7
BETA_LOWER_REF = 0.8218066258637801
BETA_UPPER_REF = 0.8701860352795967
BRACKET_TOL = 1e-7
ALPHA_CAP = 0.8705
MONOTONE_SLACK = 2e-3
RECOMPUTE_RTOL = 1e-12
IMPLICIT_RTOL = 1e-8

# lemma4 on the enlarged verify grid, as the seed commit reports it
LEMMA4_MIN_MARGIN = -0.2107439822826639
LEMMA4_WITNESS = (2.8933437346562902, 5.0, 0.8218)
LEMMA4_OUT_OF_HYPOTHESIS = 3626

# CLI defaults of `bounds` that the tables workload keeps
COEFF = 1.22
BETA = 0.8218
KINETIC = 0.68
CSV_SCHEMA = "#schema=ionbound.bounds.v1"
CSV_HEADER = "Z,lieb,main,implicit_N,model_extra"


def config_ratio(points) -> float:
    """sum_{i<j} (|x_i|^2 + |x_j|^2) / |x_i - x_j| over (N-1) sum_i |x_i|."""
    p = np.asarray(points, dtype=float)
    n = len(p)
    i, j = np.triu_indices(n, 1)
    sq = (p * p).sum(axis=1)
    dist = np.sqrt(((p[i] - p[j]) ** 2).sum(axis=1))
    return math.fsum((sq[i] + sq[j]) / dist) / ((n - 1) * math.fsum(np.sqrt(sq)))


def radial_ratio(nodes, weights) -> float:
    """w^T Q w / w^T r with Q_ij = (r_i^2 + r_j^2) / (2 max(r_i, r_j))."""
    r = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    q = (r[:, None] ** 2 + r[None, :] ** 2) / (2.0 * np.maximum.outer(r, r))
    return math.fsum((np.outer(w, w) * q).ravel()) / math.fsum(w * r)


def z_grid(spec: str) -> np.ndarray:
    lo, hi, step = (float(p) for p in spec.split(":"))
    return lo + step * np.arange(round((hi - lo) / step) + 1)


def model_extra(model: str, field: float, z: np.ndarray):
    """Closed form of the model_extra column at the CLI's default constants."""
    cbrt = np.cbrt(z)
    if model == "nonrel":
        return None
    if model == "magnetic":
        t = field / z**3
        field_term = np.minimum(0.42 * t**0.4, 1.0 + np.log(t) ** 2)
        return (COEFF * z + 3.0 * cbrt) * (1.0 + 11.8 * z ** (-2.0 / 3.0) + field_term)
    if model == "relativistic":
        return COEFF * z + cbrt
    if model == "bosonic":
        t = field / z**2
        return (z / BETA + 3.0 * cbrt) * (1.0 + np.minimum(1.0 + 4.0 * t, np.log(t) ** 2))
    raise ValueError(f"unknown model {model!r}")


def _relative_misses(got, want, rtol: float) -> int:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return int(np.count_nonzero(~(np.abs(got - want) <= rtol * np.abs(want))))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


class Checker:
    """Checks outputs and remembers what must repeat exactly within one run."""

    def __init__(self):
        self._implicit: dict[float, float] = {}
        self._reference: dict[str, str] = {}

    def check(self, cmd: Command, exit_code: int | None) -> tuple[list[str], dict]:
        """Problems found in ``cmd``'s exit code and output, and its facts."""
        if exit_code is None:
            return [f"{cmd.label}: timed out"], {}
        problems = []
        if exit_code != cmd.expect_exit:
            problems.append(f"{cmd.label}: exit {exit_code}, expected {cmd.expect_exit}")
        try:
            text = cmd.out.read_text(encoding="utf-8")
            checker = {
                "alpha": self._alpha, "beta": self._beta, "bounds-csv": self._bounds_csv,
                "bounds-json": self._bounds_json, "svg": self._svg, "verify": self._verify,
            }[cmd.kind]
            found, facts, fingerprint = checker(cmd, text)
        except (OSError, ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
            return problems + [f"{cmd.label}: unreadable output ({exc!r})"], {}
        problems += [f"{cmd.label}: {p}" for p in found]
        if cmd.deterministic:
            first = self._reference.setdefault(cmd.label, fingerprint)
            if fingerprint != first:
                problems.append(f"{cmd.label}: output differs from the run's first pass")
        facts["bytes"] = len(text.encode("utf-8"))
        return problems, facts

    # one method per Command.kind, each returning (problems, facts, fingerprint)

    def _alpha(self, cmd, text):
        payload = json.loads(text)
        rows = payload["results"]["alpha"]
        problems = []
        ns = [row["N"] for row in rows]
        if ns != list(ALPHA_NS):
            problems.append(f"N values {ns}")
        value = {row["N"]: row["value"] for row in rows}
        if not abs(value.get(2, math.nan) - 0.5) <= 1e-4:
            problems.append(f"alpha_2 = {value.get(2)} is not 0.5 within 1e-4")
        if not 0.559 <= value.get(3, math.nan) <= 0.5774:
            problems.append(f"alpha_3 = {value.get(3)} outside [0.559, 0.5774]")
        for row in rows:
            n, v = row["N"], row["value"]
            if not row["lower_bound"] <= v <= ALPHA_CAP:
                problems.append(f"N={n}: {row['lower_bound']} <= {v} <= {ALPHA_CAP} fails")
            ratio = config_ratio(row["best_config"])
            if not _close(ratio, v, RECOMPUTE_RTOL):
                problems.append(f"N={n}: best_config ratio {ratio!r} != value {v!r}")
            if row["restarts"] != ALPHA_RESTARTS or not 0 <= row["converged_restarts"] <= row["restarts"]:
                problems.append(f"N={n}: restart counts {row['restarts']}, {row['converged_restarts']}")
        ordered = [row["value"] for row in rows]
        for n, (a, b) in zip(ns[1:], zip(ordered, ordered[1:])):
            if b < a - MONOTONE_SLACK:
                problems.append(f"value drops from {a} to {b} at N={n}")
        facts = {
            "descents": sum(row["restarts"] for row in rows),
            "converged": sum(row["converged_restarts"] for row in rows),
            "best_mean": sum(ordered) / len(ordered),
        }
        return problems, facts, _results_fingerprint(payload)

    def _beta(self, cmd, text):
        payload = json.loads(text)
        beta = payload["results"]["beta"]
        lower, upper = beta["lower"], beta["upper"]
        problems = []
        if not abs(lower - BETA_LOWER_REF) <= BRACKET_TOL:
            problems.append(f"lower {lower!r} not within {BRACKET_TOL} of {BETA_LOWER_REF}")
        if not abs(upper - BETA_UPPER_REF) <= BRACKET_TOL:
            problems.append(f"upper {upper!r} not within {BRACKET_TOL} of {BETA_UPPER_REF}")
        cert = beta["certificate_measure"]
        nodes, weights = cert["nodes"], cert["weights"]
        if min(weights) < 0.0 or not abs(math.fsum(weights) - 1.0) <= 1e-12:
            problems.append("certificate weights are not a probability vector")
        if nodes[0] <= 0.0 or any(b <= a for a, b in zip(nodes, nodes[1:])):
            problems.append("certificate nodes are not positive and increasing")
        ratio = radial_ratio(nodes, weights)
        if not _close(ratio, upper, RECOMPUTE_RTOL):
            problems.append(f"certificate ratio {ratio!r} != upper {upper!r}")
        return problems, {"lower": lower, "upper": upper}, _results_fingerprint(payload)

    def _bounds_csv(self, cmd, text):
        lines = text.split("\n")
        problems = []
        if lines[0] != CSV_SCHEMA:
            problems.append(f"schema line {lines[0]!r}")
        if lines[1] != CSV_HEADER:
            problems.append(f"header {lines[1]!r}")
        cells = [line.split(",") for line in lines[2:] if line]
        columns = list(zip(*cells))
        z, lieb, main, implicit = (np.array(c, dtype=float) for c in columns[:4])
        extra = None if cmd.model == "nonrel" else np.array(columns[4], dtype=float)
        if cmd.model == "nonrel" and any(columns[4]):
            problems.append("nonrel rows carry a model_extra value")
        problems += self._rows(cmd, z, lieb, main, implicit, extra)
        return problems, {"rows": len(cells)}, _text_fingerprint(text)

    def _bounds_json(self, cmd, text):
        payload = json.loads(text)
        rows = payload["results"]["bounds"]
        z, lieb, main, implicit = (
            np.array([row[key] for row in rows], dtype=float)
            for key in ("Z", "lieb", "main", "implicit_N")
        )
        problems = []
        if any(row["model_extra"] is not None for row in rows):
            problems.append("nonrel rows carry a model_extra value")
        problems += self._rows(cmd, z, lieb, main, implicit, None)
        return problems, {"rows": len(rows)}, _results_fingerprint(payload)

    def _svg(self, cmd, text):
        root = ET.fromstring(text.encode("utf-8"))
        problems = []
        if root.tag != "{http://www.w3.org/2000/svg}svg":
            problems.append(f"root element {root.tag!r}")
        if len(root.findall("{http://www.w3.org/2000/svg}polyline")) != 3:
            problems.append("expected three plotted series")
        return problems, {}, _text_fingerprint(text)

    def _verify(self, cmd, text):
        payload = json.loads(text)
        reports = {r["lemma"]: r for r in payload["results"]["lemmas"]}
        problems = []
        if sorted(reports) != ["cubic-signs", "lemma3", "lemma4"]:
            return [f"lemmas {sorted(reports)}"], {}, ""
        for name in ("lemma3", "cubic-signs"):
            if not (reports[name]["pass"] and reports[name]["min_margin"] > 0):
                problems.append(f"{name} does not pass")
        l4 = reports["lemma4"]
        if l4["pass"] or not _close(l4["min_margin"], LEMMA4_MIN_MARGIN, 1e-9):
            problems.append(f"lemma4 min margin {l4['min_margin']!r}, expected {LEMMA4_MIN_MARGIN!r}")
        witness = tuple(l4["witness"])
        if len(witness) != 3 or _relative_misses(witness, LEMMA4_WITNESS, 1e-9):
            problems.append(f"lemma4 witness {witness}, expected {LEMMA4_WITNESS}")
        if l4["out_of_hypothesis"] != LEMMA4_OUT_OF_HYPOTHESIS:
            problems.append(f"lemma4 out_of_hypothesis {l4['out_of_hypothesis']}")
        return problems, {}, _results_fingerprint(payload)

    def _rows(self, cmd, z, lieb, main, implicit, extra) -> list[str]:
        problems = []
        want_z = z_grid(cmd.z_range)
        if z.shape != want_z.shape or np.any(np.abs(z - want_z) > 1e-9):
            return [f"Z column is not the grid {cmd.z_range}"]
        for name, got, want, rtol in (
            ("lieb", lieb, 2.0 * z + 1.0, RECOMPUTE_RTOL),
            ("main", main, COEFF * z + 3.0 * np.cbrt(z), RECOMPUTE_RTOL),
            ("implicit_N", implicit, [self.implicit_bound(x) for x in z], IMPLICIT_RTOL),
            ("model_extra", extra, model_extra(cmd.model, cmd.field, z), RECOMPUTE_RTOL),
        ):
            if got is not None and (misses := _relative_misses(got, want, rtol)):
                problems.append(f"{name} differs from its oracle in {misses} rows")
        return problems

    def implicit_bound(self, z: float) -> float:
        """Root of N (beta - beta1 N^(-2/3)) / (1 + 0.68 N^(-2/3)) = Z."""
        if z not in self._implicit:
            beta1 = 3.0 * (BETA / 6.0) ** (1.0 / 3.0)

            def excess(n):
                u = n ** (-2.0 / 3.0)
                return n * (BETA - beta1 * u) / (1.0 + KINETIC * u) - z

            # the left side is -Z where its numerator vanishes and increases past it
            lo = (beta1 / BETA) ** 1.5
            hi = 2.0 * max(lo, z / BETA)
            while excess(hi) <= 0.0:
                hi *= 2.0
            self._implicit[z] = brentq(excess, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps)
        return self._implicit[z]


def _results_fingerprint(payload: dict) -> str:
    # `config` echoes the --out path, so only `results` must repeat
    return _text_fingerprint(json.dumps(payload["results"], sort_keys=True))


def _text_fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
