"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
The expensive shared computations (the N = 2..12 estimate sweep, the
200-node radial minimization and the Monte Carlo oracle cases) come from
session fixtures in conftest.py.
"""

import math
import time

import numpy as np

from conftest import diameter, random_configuration
from ionbound.alpha import OptimizerSettings, alpha_sandwich, estimate_alpha
from ionbound.beta import (
    TRIAL_MEASURE_ANALYTIC,
    _gradient,
    bracket_detail,
    g_of_lambda,
    maximize_g,
)
from ionbound.bounds import BoundInputs, crossover_z, derived_constants
from ionbound.cli import main as cli_main
from ionbound.kernels import ParticleConfiguration, ratio_gradient, ratio_value
from ionbound.lemmas import LemmaGrid, verify_lemma
from oracles import (
    radial_kernel_triple,
    sphere_average_dipole,
    sphere_average_inverse_distance,
    trial_measure_quadrature,
)


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\ncriterion {num:02d} [{status}] {description}{suffix}")
    assert ok, f"criterion {num:02d} failed: {description}{suffix}"


def test_criterion_01_alpha2_reproduction(alpha_sweep):
    estimates, per_n, _ = alpha_sweep
    antipodal = ratio_value(ParticleConfiguration([[1, 0, 0], [-1, 0, 0]])).ratio
    ok = (
        abs(estimates[2].value - 0.5) <= 1e-4
        and abs(antipodal - 0.5) <= 1e-12
        and per_n[2] < 1.0
    )
    _criterion(
        1,
        "alpha_2 = 0.5 within 1e-4 and antipodal pair exact",
        ok,
        f"value={estimates[2].value:.8f}, antipodal={antipodal}, t={per_n[2]:.2f}s",
    )


def test_criterion_02_alpha3_bracket(alpha_sweep):
    estimates, per_n, _ = alpha_sweep
    value = estimates[3].value
    ok = 0.559 <= value <= 0.5774 and estimates[3].restarts_used >= 64 and per_n[3] < 5.0
    _criterion(
        2,
        "alpha_3 inside [0.559, 0.5774] at 64 restarts",
        ok,
        f"value={value:.7f}, t={per_n[3]:.2f}s",
    )


def test_criterion_03_monotonicity(alpha_sweep):
    estimates, _, total = alpha_sweep
    values = [estimates[n].value for n in range(2, 13)]
    ok = all(b >= a - 2e-3 for a, b in zip(values, values[1:])) and total < 120.0
    _criterion(
        3,
        "estimates non-decreasing for N = 2..12 within 2e-3",
        ok,
        f"t={total:.1f}s, values={[f'{v:.4f}' for v in values]}",
    )


def test_criterion_04_sandwich(alpha_sweep):
    estimates, _, _ = alpha_sweep
    ok = all(
        alpha_sandwich(n, 0.8218) <= estimates[n].value <= 0.8705 + 1e-6
        for n in range(2, 13)
    )
    _criterion(4, "lower bound <= estimate <= 0.8705 for N = 2..12", ok)


def test_criterion_05_g_maximization():
    t0 = time.perf_counter()
    lam0, g_max = maximize_g(1e-8)
    elapsed = time.perf_counter() - t0
    g843 = g_of_lambda(0.843).g
    ok = (
        abs(lam0 - 0.843476) <= 1e-5
        and abs(g_max - 0.8218066) <= 1e-6
        and abs(g843 - 0.821804) <= 1e-6
        and elapsed < 0.1
    )
    _criterion(
        5,
        "g maximum at lambda_0 = 0.843476 with g_max = 0.8218066",
        ok,
        f"lambda_0={lam0:.7f}, g_max={g_max:.8f}, t={elapsed * 1e3:.2f}ms",
    )


def test_criterion_06_trial_measure():
    quadrature, normalization = trial_measure_quadrature()
    expected = 115 / 81 - math.log(3) / 2
    ok = (
        TRIAL_MEASURE_ANALYTIC == expected
        and abs(quadrature - expected) <= 1e-6
        and abs(normalization - 1.0) <= 1e-10
    )
    _criterion(
        6,
        "trial measure quadrature matches 115/81 - ln(3)/2 and normalizes",
        ok,
        f"quadrature={quadrature:.10f}, normalization={normalization:.12f}",
    )


def test_criterion_07_radial_minimization(radial_minimum_default):
    _, value, _, elapsed = radial_minimum_default
    _, g_max = maximize_g(1e-10)
    ok = abs(value - 0.8702) <= 5e-4 and value >= g_max - 1e-4 and elapsed < 60.0
    _criterion(
        7,
        "radial minimum = 0.8702 within 5e-4 at 200 nodes",
        ok,
        f"value={value:.7f}, t={elapsed:.1f}s",
    )


def test_criterion_08_bracket():
    bracket = bracket_detail()
    ok = (
        abs(bracket.lower - 0.8218) <= 1e-4
        and bracket.upper < 0.8705
        and bracket.lower <= bracket.upper
    )
    _criterion(
        8,
        "bracket lower = 0.8218 and upper < 0.8705",
        ok,
        f"[{bracket.lower:.7f}, {bracket.upper:.7f}]",
    )


def test_criterion_09_constant_chain():
    pc = derived_constants()
    ok = (
        abs(pc.L - 0.01225) <= 1e-5
        and abs(pc.C1 - 0.4271) <= 1e-4
        and pc.c_radius > 0.553
        and pc.c_kinetic < 0.68
    )
    _criterion(
        9,
        "constant chain: L, C1, and conservative derived coefficients",
        ok,
        f"L={pc.L:.6f}, C1={pc.C1:.5f}, c_radius={pc.c_radius:.5f}, c_kinetic={pc.c_kinetic:.5f}",
    )


def test_criterion_10_crossover():
    z = crossover_z(BoundInputs())
    _criterion(10, "smallest Z with 1.22 Z + 3 Z^(1/3) < 2Z + 1 is 6", z == 6, f"Z={z}")


def test_criterion_11_lemma_verifiers(tmp_path):
    t0 = time.perf_counter()
    lemma3 = verify_lemma("lemma3", LemmaGrid(z_points=120, ratio_points=120))
    cubic_ref = verify_lemma("cubic-signs", LemmaGrid())
    cubic_grid = verify_lemma(
        "cubic-signs", LemmaGrid(beta_points=10001, beta_range=(0.8218, 0.99))
    )
    elapsed = time.perf_counter() - t0
    exit_ok = cli_main(
        ["verify", "--lemma", "lemma3", "--out", str(tmp_path / "l3.json")]
    ) == 0 and cli_main(["verify", "--lemma", "cubic", "--grid-beta", "10001"]) == 0
    # the exit-2 contract, demonstrated on the one verifier that finds violations
    exit_violation = cli_main(["verify", "--lemma", "lemma4"]) == 2
    points_ok = (
        lemma3.grid["z_points"] * lemma3.grid["ratio_points"] >= 10**4
        and cubic_grid.grid["beta_points"] >= 10**4
    )
    ok = (
        lemma3.passed
        and cubic_ref.passed
        and cubic_grid.passed
        and points_ok
        and exit_ok
        and exit_violation
        and elapsed < 30.0
    )
    _criterion(
        11,
        "lemma3 and cubic-signs positive on 1e4-point grids; exit 2 on violation",
        ok,
        f"lemma3 min={lemma3.min_margin:.5f}, cubic min={cubic_grid.min_margin:.5f}, t={elapsed:.1f}s",
    )


def test_criterion_12_identity_suite(monte_carlo_oracle_cases):
    mc_ok = True
    for a, s, mean, se, dmean, dse in monte_carlo_oracle_cases:
        mc_ok &= abs(mean - sphere_average_inverse_distance(a, s)) <= 3 * se
        mc_ok &= bool(np.all(np.abs(dmean - sphere_average_dipole(a, s)) <= 3 * dse))
    triple_ok = True
    for r, s in np.random.default_rng(21).uniform(0.05, 20.0, size=(100, 2)):
        full, k1, k2 = radial_kernel_triple(r, s)
        triple_ok &= abs(full - k1) < 1e-12 * full and abs(full - k2) < 1e-12 * full
        # the solver's kernel 2Q(r, s) is the shell average of the pair kernel
        two_q = _gradient(sorted((float(r), float(s))), [0.0, 1.0])[0]
        triple_ok &= abs(two_q - full) < 1e-12 * full
    _criterion(
        12,
        "spherical averages match Monte Carlo; shell-average triple and the radial "
        "solver's kernel equal to 1e-12",
        mc_ok and triple_ok,
    )


def test_criterion_13_gradient_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    ok = True
    for case in range(100):
        pts = random_configuration(rng, 2 + case % 7)
        grad = ratio_gradient(ParticleConfiguration(pts))
        h = 1e-6 * diameter(pts)
        fd = np.zeros_like(pts)
        for i in range(pts.shape[0]):
            for j in range(3):
                up, down = pts.copy(), pts.copy()
                up[i, j] += h
                down[i, j] -= h
                fd[i, j] = (ratio_value(ParticleConfiguration(up)).ratio
                            - ratio_value(ParticleConfiguration(down)).ratio) / (2 * h)
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
        ok &= rel < 1e-5
    _criterion(13, "analytic gradients within 1e-5 of differences, 100 cases", ok,
               f"worst relative error {worst:.2e}")


def test_criterion_14_report_determinism(tmp_path):
    args = ["report", "--n", "2:3", "--restarts", "8", "--nodes", "80", "--z", "1:8"]
    json_out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    ok = cli_main(args + ["--out", str(json_out)]) == 0
    first_json = json_out.read_bytes()
    ok &= cli_main(args + ["--out", str(json_out)]) == 0
    ok &= cli_main(args + ["--format", "csv", "--out", str(csv_out)]) == 0
    first_csv = csv_out.read_bytes()
    ok &= cli_main(args + ["--format", "csv", "--out", str(csv_out)]) == 0
    ok &= json_out.read_bytes() == first_json and csv_out.read_bytes() == first_csv
    _criterion(14, "repeated report runs produce byte-identical CSV/JSON", bool(ok))
