import os
import time

import numpy as np
import pytest

import ionbound
from ionbound.alpha import OptimizerSettings, estimate_alpha
from ionbound.beta import minimize_radial_ratio
from oracles import mc_dipole, mc_inverse_distance

# the interpreters that tests start import the package the tests import
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(ionbound.__file__)), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def alpha_sweep():
    """Estimates for N = 2..12 at 64 restarts, with per-N and total wall time."""
    settings = OptimizerSettings(restarts=64, seed=7)
    estimates = {}
    per_n = {}
    t_total = time.perf_counter()
    for n in range(2, 13):
        t0 = time.perf_counter()
        estimates[n] = estimate_alpha(n, settings)
        per_n[n] = time.perf_counter() - t0
    return estimates, per_n, time.perf_counter() - t_total


@pytest.fixture(scope="session")
def radial_minimum_default():
    """Radial-measure minimization at the default 200-node grid, with wall time."""
    t0 = time.perf_counter()
    history = []
    measure, value = minimize_radial_ratio(history=history)
    return measure, value, history, time.perf_counter() - t0


@pytest.fixture(scope="session")
def monte_carlo_oracle_cases():
    """20 seeded (a, s) cases, each with the Monte Carlo mean and standard error
    of 1/|a + s w| (seed 1000 + case) and of w/|a + s w| (seed 2000 + case) over
    10^6 sphere samples: (a, s, mean, se, dipole mean, dipole se) per case.

    |a| and s are kept well separated; the coincident-radius case has heavy
    tails and is pinned separately.
    """
    rng = np.random.default_rng(99)
    cases = []
    for case in range(20):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        if case % 2 == 0:
            a = direction * rng.uniform(0.3, 1.4)
            s = rng.uniform(1.8, 3.0)
        else:
            a = direction * rng.uniform(1.6, 3.0)
            s = rng.uniform(0.1, 1.2)
        mean, se = mc_inverse_distance(a, s, samples=10**6, seed=1000 + case)
        dmean, dse = mc_dipole(a, s, samples=10**6, seed=2000 + case)
        cases.append((a, s, mean, se, dmean, dse))
    return cases


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation via QR of a Gaussian matrix, determinant +1."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_configuration(rng: np.random.Generator, n: int) -> np.ndarray:
    """Generic point set with no near-coincidences and no point near the origin."""
    while True:
        pts = rng.standard_normal((n, 3)) * rng.uniform(0.5, 1.5)
        norms = np.linalg.norm(pts, axis=1)
        diffs = pts[:, None, :] - pts[None, :, :]
        d = np.linalg.norm(diffs, axis=2)[np.triu_indices(n, 1)]
        if norms.min() > 0.1 and d.min() > 0.1:
            return pts
