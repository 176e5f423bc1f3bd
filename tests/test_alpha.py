import hashlib
import math

import numpy as np
import pytest

from conftest import random_configuration
from oracles import sandwich_at_r, sandwich_maximizing_r
from ionbound import alpha
from ionbound.alpha import (
    ORIGIN_GUARD,
    OptimizerSettings,
    _initial_points,
    alpha_sandwich,
    estimate_alpha,
    local_minimize,
)
from ionbound.errors import DomainError
from ionbound.kernels import (
    ParticleConfiguration,
    _ratio_and_gradient,
    ratio_gradient,
    ratio_value,
)

ANTIPODAL = ParticleConfiguration([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])


def equilateral():
    return ParticleConfiguration(
        [
            [1.0, 0.0, 0.0],
            [-0.5, math.sqrt(3) / 2, 0.0],
            [-0.5, -math.sqrt(3) / 2, 0.0],
        ]
    )


# ---------------------------------------------------------------------------
# _normalized
# ---------------------------------------------------------------------------

def test_normalize_scales_to_n():
    pts = alpha._normalized(np.array([[2.0, 0, 0], [-2.0, 0, 0]]))
    np.testing.assert_allclose(pts, [[1, 0, 0], [-1, 0, 0]], atol=1e-15)


def test_normalize_idempotent():
    once = alpha._normalized(equilateral().points)
    twice = alpha._normalized(once)
    np.testing.assert_array_equal(once, twice)


def test_normalize_preserves_ratio():
    rng = np.random.default_rng(8)
    for _ in range(20):
        pts = random_configuration(rng, 5)
        cfg = ParticleConfiguration(pts)
        normalized = ParticleConfiguration(alpha._normalized(cfg.points))
        assert np.linalg.norm(normalized.points, axis=1).sum() == pytest.approx(
            5.0, abs=1e-12
        )
        assert ratio_value(normalized).ratio == pytest.approx(
            ratio_value(cfg).ratio, rel=1e-12
        )


# ---------------------------------------------------------------------------
# local_minimize
# ---------------------------------------------------------------------------

def test_antipodal_pair_is_a_fixed_point():
    result = local_minimize(ANTIPODAL, OptimizerSettings(seed=1))
    assert result.value.ratio == pytest.approx(0.5, abs=1e-12)
    assert result.converged


def test_descent_from_equilateral_triangle():
    result = local_minimize(equilateral(), OptimizerSettings(seed=1))
    assert result.value.ratio <= 1 / math.sqrt(3) + 1e-15


def test_descent_trace_is_monotone():
    rng = np.random.default_rng(12)
    start = ParticleConfiguration(random_configuration(rng, 4))
    history = []
    result = local_minimize(start, OptimizerSettings(seed=1), history=history)
    assert result.value.ratio <= ratio_value(start).ratio
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_local_minimize_rejects_origin_start():
    with pytest.raises(DomainError):
        local_minimize(
            ParticleConfiguration([[0, 0, 0], [1, 0, 0]]), OptimizerSettings()
        )


# ---------------------------------------------------------------------------
# estimate_alpha
# ---------------------------------------------------------------------------

def test_estimate_alpha_n2():
    est = estimate_alpha(2, OptimizerSettings(restarts=8, seed=7))
    assert est.value == pytest.approx(0.5, abs=1e-4)
    assert est.restarts_used == 8


def test_estimate_alpha_n2_cross_seed():
    a = estimate_alpha(2, OptimizerSettings(restarts=8, seed=7))
    b = estimate_alpha(2, OptimizerSettings(restarts=8, seed=987654321))
    assert abs(a.value - b.value) <= 1e-6


def test_estimate_alpha_n3_bracket():
    est = estimate_alpha(3, OptimizerSettings(restarts=32, seed=7))
    assert math.sqrt(5) / 4 <= est.value <= 1 / math.sqrt(3) + 1e-6


def test_estimate_alpha_deterministic():
    settings = OptimizerSettings(restarts=6, seed=42)
    a = estimate_alpha(4, settings)
    b = estimate_alpha(4, settings)
    assert a.value == b.value
    np.testing.assert_array_equal(a.best_config.points, b.best_config.points)


def test_estimate_normalization_and_lower_bound():
    est = estimate_alpha(5, OptimizerSettings(restarts=8, seed=3))
    norms = np.linalg.norm(est.best_config.points, axis=1)
    assert norms.sum() == pytest.approx(5.0, abs=1e-9)
    assert ratio_value(est.best_config).normalizer == pytest.approx(20.0, abs=1e-8)
    assert est.lower_bound <= est.value


def test_estimate_alpha_rejects_n1():
    with pytest.raises(DomainError):
        estimate_alpha(1, OptimizerSettings(restarts=1, seed=0))


def test_alpha_input_caps_are_domain_errors():
    # rejected before anything is allocated; never run these values uncapped
    with pytest.raises(DomainError):
        OptimizerSettings(restarts=alpha.MAX_RESTARTS + 1)
    with pytest.raises(DomainError):
        estimate_alpha(alpha.MAX_POINT_COUNT + 1, OptimizerSettings(restarts=1))


# ---------------------------------------------------------------------------
# alpha_sandwich
# ---------------------------------------------------------------------------

def test_sandwich_n2_formula():
    beta = 0.8218
    expected = 2.0 * (beta - 3.0 * (beta / 6.0) ** (1 / 3) * 2 ** (-2 / 3))
    bound = alpha_sandwich(2, beta)
    assert bound == pytest.approx(expected, rel=1e-14)
    assert bound < 0  # vacuous but well-defined at N = 2


def test_sandwich_large_n_limit():
    assert alpha_sandwich(10**6, 0.8218) == pytest.approx(0.8218, abs=1e-3)


def test_sandwich_default_r_is_maximal():
    n, beta = 100, 0.8218
    r_star = sandwich_maximizing_r(n, beta)
    assert 0 < r_star <= 1
    best = sandwich_at_r(n, beta, r_star)
    for r in np.linspace(0.01, 1.0, 100):
        assert best >= sandwich_at_r(n, beta, float(r)) - 1e-12
    # at the maximizing radius the r-family reproduces the closed form
    assert best == pytest.approx(alpha_sandwich(n, beta), rel=1e-12)


def test_sandwich_domain_checks():
    with pytest.raises(DomainError):
        alpha_sandwich(5, 1.5)
    with pytest.raises(DomainError, match="n must be >= 2"):
        alpha_sandwich(1, 0.8218)


# ---------------------------------------------------------------------------
# cheap slices of the expensive invariants (full versions in acceptance)
# ---------------------------------------------------------------------------

def test_monotone_and_sandwiched_small_n():
    settings = OptimizerSettings(restarts=16, seed=7)
    values = {n: estimate_alpha(n, settings).value for n in range(2, 7)}
    for n in range(3, 7):
        assert values[n] >= values[n - 1] - 2e-3
    for n, v in values.items():
        assert alpha_sandwich(n, 0.8218) <= v <= 0.8705 + 1e-6


# ---------------------------------------------------------------------------
# L-BFGS descent: local optimality, regression pins, guards, starts, counters
# ---------------------------------------------------------------------------

# fixture bests (64 restarts, seed 7) of the backtracking steepest descent
# that L-BFGS replaced; 11 and 12 had 4 and 11 restarts at the iteration cap
STEEPEST_DESCENT_BEST = {
    2: 0.5000000000726257,
    3: 0.5773502693130457,
    4: 0.612372435946664,
    5: 0.6474226782444963,
    6: 0.6656854260262003,
    7: 0.6881169296013329,
    8: 0.7026888602675754,
    9: 0.715523814865085,
    10: 0.7270113876802852,
    11: 0.7375821800820674,
    12: 0.7449281115953629,
}

# sha256 of _initial_points(n, OptimizerSettings(seed=seed), k).tobytes(),
# recorded before the guarded evaluator replaced the old trial-ratio check
INITIAL_POINTS_SHA256 = {
    (2, 0, 7): "f199cba73a9534f43880528d21383f1e7076b157ec5bb2424912549da8769992",
    (5, 3, 7): "91f42572f9e11c16c33ac66e323917a88c01028a848446ace2de53f6b35b185b",
    (8, 17, 7): "b1f0da6aec7561f52ebe3139eded3a5723675969f2df4dfd0cfdd17afd30d63d",
    (12, 63, 7): "a4c1b74c9478d45e17995542243f5573bba1a8ddd92100cc5576b21958c164bc",
    (12, 1, 0): "aa173b71c7805748cee246d6bb12668877a0bb4f2a7fc2c574ad34663a9062cf",
    (7, 5, 2**64 - 1): "d5f0d1516c48367cedaf1adba9a90cfc9302557a6d8a0b98031547e2b7ff8789",
}


@pytest.mark.parametrize("n", [8, 12])
def test_descent_ends_where_scipy_finds_no_lower_value(n):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(100 + n)
    for _ in range(8):
        start = ParticleConfiguration(random_configuration(rng, n))
        ours = local_minimize(start, OptimizerSettings())
        assert ours.converged

        def ratio_and_gradient(x):
            ratio, grad = _ratio_and_gradient(x.reshape(n, 3))
            return ratio, grad.ravel()

        polished = scipy_optimize.minimize(
            ratio_and_gradient, ours.config.points.ravel(), jac=True, method="BFGS",
            options={"gtol": 1e-12, "maxiter": 2000},
        )
        polished_ratio = ratio_value(ParticleConfiguration(polished.x.reshape(n, 3))).ratio
        assert polished_ratio >= ours.value.ratio - 1e-9


def test_fixture_matches_or_beats_steepest_descent(alpha_sweep):
    estimates, _, _ = alpha_sweep
    for n, reference in STEEPEST_DESCENT_BEST.items():
        assert estimates[n].value <= reference + 1e-12, n
        assert estimates[n].converged_restarts == 64, n
        assert estimates[n].diagnostics["cap_hits"] == 0, n


def _near_coincident(rng, n):
    pts = random_configuration(rng, n)
    pts[1] = pts[0] + 1e-9 * np.array([0.6, 0.0, 0.8])
    return pts


def _near_origin(rng, n):
    pts = random_configuration(rng, n)
    pts[0] = [0.0, 3e-9, 4e-9]
    return pts


@pytest.mark.parametrize("make_start", [_near_coincident, _near_origin])
def test_guarded_descent_keeps_every_iterate_valid(monkeypatch, make_start):
    accepted = []

    def recording(points):
        trial = evaluate_trial(points)
        if trial is not None:
            accepted.append(trial[1])
        return trial

    evaluate_trial = alpha._evaluate_trial
    monkeypatch.setattr(alpha, "_evaluate_trial", recording)
    rng = np.random.default_rng(5)
    for n in (3, 6, 9):
        start = ParticleConfiguration(make_start(rng, n))
        history = []
        result = local_minimize(start, OptimizerSettings(), history)
        assert all(b < a for a, b in zip(history, history[1:]))
        # from a near-coincident pair the first gradient step collapses all but
        # one point onto the origin guard; the descent must still climb out
        assert result.converged
        assert result.value.ratio <= STEEPEST_DESCENT_BEST[n] + 1e-9
    assert accepted
    for pts in accepted:
        ParticleConfiguration(pts)
        assert np.linalg.norm(pts, axis=1).min() >= ORIGIN_GUARD


def test_evaluate_trial_guards_and_rescales():
    rng = np.random.default_rng(3)
    pts = random_configuration(rng, 5) * 7.0
    ratio, scaled, grad = alpha._evaluate_trial(pts)
    assert ratio == pytest.approx(ratio_value(ParticleConfiguration(pts)).ratio, rel=1e-13)
    assert np.linalg.norm(scaled, axis=1).sum() == pytest.approx(5.0, rel=1e-14)
    np.testing.assert_allclose(grad, ratio_gradient(ParticleConfiguration(scaled)), rtol=1e-12)

    coincident = pts.copy()
    coincident[1] = coincident[0] + 1e-13 * np.abs(pts).max()
    near_origin = pts.copy()
    near_origin[2] *= 1e-11
    for bad in (coincident, near_origin, np.zeros((3, 3))):
        assert alpha._evaluate_trial(bad) is None


@pytest.mark.parametrize("key", list(INITIAL_POINTS_SHA256), ids=str)
def test_initial_points_unchanged(key):
    n, k, seed = key
    pts = _initial_points(n, OptimizerSettings(seed=seed), k)
    assert hashlib.sha256(pts.tobytes()).hexdigest() == INITIAL_POINTS_SHA256[key]


def test_diagnostics_count_cap_hits(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(alpha, "_MAX_ITERATIONS", 1)
        capped = estimate_alpha(4, OptimizerSettings(restarts=3, seed=2))
    assert capped.converged_restarts == 0
    assert capped.diagnostics["cap_hits"] == 3
    assert capped.diagnostics["iterations_total"] == 3
    assert capped.diagnostics["iterations_max"] == 1
    assert capped.diagnostics["evaluations_total"] >= 3
    assert 1 <= capped.diagnostics["basin_hits"] <= 3

    est = estimate_alpha(4, OptimizerSettings(restarts=3, seed=2))
    assert list(est.diagnostics) == [
        "iterations_total", "iterations_max", "evaluations_total", "cap_hits", "basin_hits",
    ]
    assert est.converged_restarts == 3 and est.diagnostics["cap_hits"] == 0
    assert est.diagnostics["evaluations_total"] >= est.diagnostics["iterations_total"]
    assert est.diagnostics["basin_hits"] == 3
