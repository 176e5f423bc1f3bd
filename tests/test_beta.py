import math
import time

import numpy as np
import pytest

from ionbound.beta import (
    TRIAL_MEASURE_ANALYTIC,
    BetaSettings,
    RadialMeasure,
    bracket_detail,
    default_nodes,
    g_of_lambda,
    maximize_g,
    minimize_radial_ratio,
    project_to_simplex,
    radial_ratio,
    trial_weights_on_nodes,
    w_maximin,
)
from ionbound.errors import DomainError
from oracles import trial_measure_quadrature


# ---------------------------------------------------------------------------
# g(lambda)
# ---------------------------------------------------------------------------

def test_g_at_0843_matches_reference():
    point = g_of_lambda(0.843)
    assert point.g == pytest.approx(0.821804, abs=1e-6)


def test_g_at_endpoint_one():
    point = g_of_lambda(1.0)
    assert point.lambda_prime == pytest.approx(1.0, abs=1e-15)
    assert point.g == pytest.approx(0.0, abs=1e-15)


def test_g_defining_equation_residual_on_grid():
    for lam in np.linspace(0.8, 1.0, 500):
        point = g_of_lambda(float(lam))
        assert abs(point.residual()) < 1e-10
        assert point.lambda_prime <= point.lam + 1e-12


def test_g_domain():
    with pytest.raises(DomainError):
        g_of_lambda(0.79)
    with pytest.raises(DomainError):
        g_of_lambda(1.01)


def test_maximize_g():
    lam0, g_max = maximize_g(1e-8)
    assert lam0 == pytest.approx(0.843476, abs=1e-5)
    assert g_max == pytest.approx(0.8218066, abs=1e-6)
    assert g_max > 0.8218
    # grid oracle for maximality
    grid = np.linspace(0.8, 1.0, 10**4)
    assert g_max >= max(g_of_lambda(float(l)).g for l in grid) - 1e-10
    with pytest.raises(DomainError):
        maximize_g(0.0)
    with pytest.raises(DomainError):
        maximize_g(math.nan)


def test_maximize_g_below_float_spacing_terminates():
    # no bracket of width 1e-300 exists near 0.84; the search must still stop
    lam0, g_max = maximize_g(1e-300)
    assert lam0 == pytest.approx(0.843476, abs=1e-5)
    assert g_max == pytest.approx(0.8218066, abs=1e-6)


# ---------------------------------------------------------------------------
# exact inner minimum of the blended kernel
# ---------------------------------------------------------------------------

def _inner_min_on_b_grid(lam: float, b: np.ndarray) -> np.ndarray:
    """W_lambda(1, b, c*)/(1+b) on a b-grid, with the closed-form clamped c*."""
    lo, hi = np.maximum(1.0 - b, 1e-9), 1.0 + b
    c = hi if lam == 1.0 else np.clip(b * math.sqrt(lam / (1.0 - lam)), lo, hi)
    return (lam * (1.0 + b * b / c) + (1.0 - lam) * (c + (2.0 / 3.0) * b * b)) / (1.0 + b)


def test_w_maximin_at_lambda_0_is_g_max():
    lam0, g_max = maximize_g(1e-10)
    result = w_maximin(lam0)
    assert abs(result.value - g_max) <= 1e-15
    assert abs(result.gap) <= 1e-15
    dense = _inner_min_on_b_grid(lam0, np.linspace(0.0, 1.0, 2 * 10**5 + 1))
    assert result.value <= dense.min() + 1e-15
    assert _inner_min_on_b_grid(lam0, np.array([result.b_at_min]))[0] == result.value


@pytest.mark.parametrize("lam, b", [(0.8, 0.1), (0.8, 0.7), (0.8434764, 0.4557), (0.9, 0.05),
                                    (0.95, 0.6), (1.0, 0.5)])
def test_closed_form_c_minimizes_the_kernel(lam, b):
    """A bounded scalar search and a dense c-grid find no lower kernel value than c*."""
    from ionbound.beta import _min_over_c
    from ionbound.kernels import w_lambda_reduced

    optimize = pytest.importorskip("scipy.optimize")
    lo, hi = max(1.0 - b, 1e-9), 1.0 + b
    kernel = lambda c: w_lambda_reduced(lam, 1.0, b, float(c)) / (1.0 + b)
    at_c_star = _min_over_c(lam, b)
    found = optimize.minimize_scalar(kernel, bounds=(lo, hi), method="bounded",
                                     options={"xatol": 1e-12})
    assert at_c_star <= found.fun + 1e-15
    assert at_c_star <= min(kernel(c) for c in np.linspace(lo, hi, 10**4)) + 1e-15


def test_inner_minimum_lies_between_g_and_g_max():
    """g minorizes the inner minimum m and touches it near lambda_0, so max m = g_max."""
    _, g_max = maximize_g(1e-10)
    lams = np.linspace(0.8, 1.0, 201)
    m = np.array([w_maximin(float(l)).value for l in lams])
    g = np.array([g_of_lambda(float(l)).g for l in lams])
    assert np.all(g - 1e-15 <= m) and np.all(m <= g_max + 1e-15)
    contact = (lams >= 0.835) & (lams <= 0.86)
    assert contact.sum() == 26
    assert np.all(np.abs(m - g)[contact] <= 1e-15)


def test_w_maximin_lambda_one():
    """With the blend fully on the first kernel, the minimum 3/4 sits at b = 1,
    where its slope vanishes, so b is located only to about sqrt(eps)."""
    result = w_maximin(1.0)
    assert result.value == pytest.approx(0.75, abs=1e-15)
    assert result.b_at_min == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("lam", [0.79, 1.01, math.nan])
def test_w_maximin_domain(lam):
    with pytest.raises(DomainError):
        w_maximin(lam)


def test_bracket_detail_reports_the_inner_minimum_at_lambda_0():
    from ionbound.beta import bracket_detail

    detail = bracket_detail(BetaSettings(node_count=30))
    assert detail.lower == g_of_lambda(detail.lambda_0).g
    assert detail.maximin == w_maximin(detail.lambda_0)
    assert abs(detail.maximin.value - detail.lower) <= 1e-15


# ---------------------------------------------------------------------------
# radial ratio and trial measure
# ---------------------------------------------------------------------------

def test_radial_ratio_single_node():
    assert radial_ratio(RadialMeasure([1.0], [1.0])) == pytest.approx(1.0)


def test_radial_ratio_two_nodes_hand_expanded():
    measure = RadialMeasure([1.0, 2.0], [0.5, 0.5])
    assert radial_ratio(measure) == pytest.approx(11 / 12, rel=1e-14)


def test_radial_ratio_dilation_invariance():
    rng = np.random.default_rng(6)
    nodes = np.sort(rng.uniform(0.1, 10.0, size=12))
    weights = rng.uniform(0.0, 1.0, size=12)
    weights /= weights.sum()
    measure = RadialMeasure(nodes, weights)
    base = radial_ratio(measure)
    for t in (10.0, 0.037, 3.5):
        dilated = RadialMeasure(measure.nodes * t, measure.weights)
        assert radial_ratio(dilated) == pytest.approx(base, rel=1e-12)


def test_radial_ratio_permutation_after_sorting():
    rng = np.random.default_rng(9)
    nodes = np.sort(rng.uniform(0.1, 10.0, size=8))
    weights = rng.uniform(0.1, 1.0, size=8)
    weights /= weights.sum()
    base = radial_ratio(RadialMeasure(nodes, weights))
    perm = rng.permutation(8)
    order = np.argsort(nodes[perm])
    again = radial_ratio(RadialMeasure(nodes[perm][order], weights[perm][order]))
    assert again == pytest.approx(base, rel=1e-12)


def test_radial_measure_invariants():
    with pytest.raises(DomainError):
        RadialMeasure([1.0, 0.5], [0.5, 0.5])
    with pytest.raises(DomainError):
        RadialMeasure([1.0, 2.0], [0.6, 0.6])
    with pytest.raises(DomainError):
        RadialMeasure([-1.0, 2.0], [0.5, 0.5])
    with pytest.raises(DomainError, match="matching non-empty"):
        RadialMeasure([1.0, 2.0], [1.0])
    with pytest.raises(DomainError, match="non-negative"):
        RadialMeasure([1.0, 2.0], [1.5, -0.5])


def test_trial_measure_analytic_value():
    assert TRIAL_MEASURE_ANALYTIC == pytest.approx(115 / 81 - math.log(3) / 2, rel=1e-15)
    assert TRIAL_MEASURE_ANALYTIC == pytest.approx(0.8704, abs=5e-5)
    assert TRIAL_MEASURE_ANALYTIC == pytest.approx(0.8704469, abs=1e-7)


def test_trial_measure_quadrature():
    ratio, normalization = trial_measure_quadrature()
    assert ratio == pytest.approx(TRIAL_MEASURE_ANALYTIC, abs=1e-6)
    assert normalization == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------

def _project_by_bisection(v: np.ndarray) -> np.ndarray:
    """Independent oracle: solve for the shift tau with sum(max(v+tau,0)) = 1."""
    lo, hi = -v.max() + 1.0 / v.size - 1.0, -v.max() + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v + mid, 0.0).sum() > 1.0:
            hi = mid
        else:
            lo = mid
    return np.maximum(v + 0.5 * (lo + hi), 0.0)


def test_simplex_projection_against_bisection_oracle():
    rng = np.random.default_rng(14)
    for _ in range(50):
        v = rng.standard_normal(int(rng.integers(2, 30))) * 3.0
        w = project_to_simplex(v)
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(w, _project_by_bisection(v), atol=1e-9)


def test_simplex_projection_fixed_point():
    w = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(project_to_simplex(w), w, atol=1e-12)


# ---------------------------------------------------------------------------
# radial minimization and the bracket
# ---------------------------------------------------------------------------

def test_minimize_single_node_is_forced():
    measure, value = minimize_radial_ratio(np.array([2.5]))
    assert value == pytest.approx(1.0)
    assert measure.weights[0] == pytest.approx(1.0)


def test_default_nodes_rejects_counts_above_the_cap():
    from ionbound.beta import MAX_NODE_COUNT

    assert MAX_NODE_COUNT >= 5000
    assert default_nodes(MAX_NODE_COUNT, (1.0, 2.0)).size == MAX_NODE_COUNT
    # by message only: the check comes before any array exists
    with pytest.raises(DomainError, match=f"node count must lie in \\[1, {MAX_NODE_COUNT}\\]"):
        default_nodes(10**8)


@pytest.mark.parametrize("node_range", [(1e100, 1e160), (1e-200, 1e-100), (1.0, 1.3e154),
                                        (1e-170, 1.0), (0.0, 1.0), (2.0, 1.0)])
def test_default_nodes_rejects_ranges_whose_squares_leave_the_floats(node_range):
    with pytest.raises(DomainError, match="node range"):
        default_nodes(10, node_range)


def test_default_nodes_rejects_spans_above_1e100():
    from ionbound.beta import MAX_NODE_SPAN

    assert MAX_NODE_SPAN == 1e100
    assert default_nodes(3, (1e-50, 1e50))[-1] == 1e50  # hi/lo = 1e100 is admitted
    for node_range in [(1.0, 1.0000001e100), (1e-150, 1e150), (1e-160, 1e150)]:
        with pytest.raises(DomainError, match="spans more than"):
            default_nodes(10, node_range)


def test_minimize_radial_ratio_default_grid(radial_minimum_default):
    measure, value, history, _ = radial_minimum_default
    assert value == pytest.approx(0.8702, abs=5e-4)
    _, g_max = maximize_g(1e-10)
    assert value >= g_max - 1e-4
    assert value <= TRIAL_MEASURE_ANALYTIC + 1e-4
    # minimizer beats the feasible warm start
    nodes = default_nodes()
    start = RadialMeasure(nodes, trial_weights_on_nodes(nodes))
    assert value <= radial_ratio(start) + 1e-9
    assert value == pytest.approx(radial_ratio(measure), abs=1e-12)


def test_dinkelbach_history_monotone(radial_minimum_default):
    _, value, history, _ = radial_minimum_default
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
    assert history[-1] == pytest.approx(value, abs=1e-12)


def test_beta_bracket_defaults(radial_minimum_default):
    bracket = bracket_detail()
    assert bracket.lower == pytest.approx(0.8218066, abs=1e-6)
    assert bracket.lower >= 0.8218 - 1e-4
    assert bracket.upper < 0.8705
    assert bracket.lower <= bracket.upper
    assert bracket.upper_source in ("trial-measure", "optimized-measure")
    _, value, _, _ = radial_minimum_default
    assert bracket.upper == pytest.approx(min(TRIAL_MEASURE_ANALYTIC, value), abs=1e-9)
    if bracket.upper_source == "optimized-measure":
        assert bracket.certificate_measure is not None
        assert radial_ratio(bracket.certificate_measure) == pytest.approx(
            bracket.upper, abs=1e-12
        )


def test_bracket_sandwich_g_below_radial(radial_minimum_default):
    _, radial_value, _, _ = radial_minimum_default
    _, g_max = maximize_g(1e-10)
    assert g_max <= radial_value


def test_dinkelbach_iteration_limit_carries_best(monkeypatch):
    from ionbound import beta
    from ionbound.errors import IonboundError, IterationLimitError

    # a zero tolerance can never be met, so the outer cap must trip
    monkeypatch.setattr(beta, "_OUTER_ITERATIONS", 2)
    monkeypatch.setattr(beta, "_DINKELBACH_TOLERANCE", 0.0)
    with pytest.raises(IterationLimitError) as info:
        minimize_radial_ratio(settings=BetaSettings(node_count=20))
    measure, value = info.value.best
    assert isinstance(measure, RadialMeasure)
    assert 0.8 < value < 1.1

    # a g above both upper candidates (each below 0.871) is a bracket that cannot hold
    monkeypatch.undo()
    monkeypatch.setattr(beta, "maximize_g", lambda tolerance: (0.85, 0.9))
    with pytest.raises(IonboundError, match="lower 0.9000000 exceeds upper"):
        beta.bracket_detail(BetaSettings(node_count=20))


# ---------------------------------------------------------------------------
# the exact active-set solve behind the radial minimum
# ---------------------------------------------------------------------------

# values of the earlier projected-gradient solver on the default node range
_PROJECTED_GRADIENT_VALUES = {
    30: 0.8715063079162438, 60: 0.8704869524089358, 200: 0.8701860352795967,
}


def _assert_strict_kkt_point(measure, value):
    from ionbound.beta import kkt_residual

    w = measure.weights
    assert w.min() >= 0.0
    assert abs(float(w.sum()) - 1.0) <= 1e-12
    assert value == radial_ratio(measure)
    assert kkt_residual(measure) <= 1e-10
    # second order: the ratio's Hessian is positive definite on the support's face
    support = np.flatnonzero(w)
    r = measure.nodes[support]
    q = 0.5 * (r[:, None] ** 2 + r[None, :] ** 2) / np.maximum.outer(r, r)
    if r.size > 1:
        face = np.vstack([np.eye(r.size - 1), -np.ones(r.size - 1)])
        assert np.linalg.eigvalsh(face.T @ q @ face).min() > 0.0


@pytest.mark.parametrize("count", sorted(_PROJECTED_GRADIENT_VALUES))
def test_radial_minimum_is_a_strict_kkt_point(count):
    measure, value = minimize_radial_ratio(settings=BetaSettings(node_count=count))
    _assert_strict_kkt_point(measure, value)
    assert value <= _PROJECTED_GRADIENT_VALUES[count] + 1e-12


def test_radial_minimum_against_slsqp_oracle():
    optimize = pytest.importorskip("scipy.optimize")
    nodes = default_nodes(30)
    _, value = minimize_radial_ratio(nodes)
    q = 0.5 * (nodes[:, None] ** 2 + nodes[None, :] ** 2) / np.maximum.outer(nodes, nodes)
    rng = np.random.default_rng(20)
    for _ in range(8):
        found = optimize.minimize(
            lambda w: (w @ q @ w) / (w @ nodes), rng.dirichlet(np.ones(nodes.size)),
            method="SLSQP", bounds=[(0.0, 1.0)] * nodes.size,
            constraints={"type": "eq", "fun": lambda w: w.sum() - 1.0},
            options={"maxiter": 1000, "ftol": 1e-15},
        )
        w = np.maximum(found.x, 0.0)
        assert radial_ratio(RadialMeasure(nodes, w / w.sum())) >= value - 1e-10


@pytest.mark.parametrize(
    "count, node_range",
    [(200, (1.0, 1.001)), (200, (1.0, 1.000000001)), (500, (1e-6, 1e6)), (200, (10.0, 20.0)),
     (2, (0.05, 20.0)), (3, (0.05, 20.0))],
)
def test_radial_minimum_on_hard_grids(count, node_range):
    t0 = time.perf_counter()
    measure, value = minimize_radial_ratio(
        settings=BetaSettings(node_count=count, node_range=node_range)
    )
    assert time.perf_counter() - t0 < 5.0
    assert math.isfinite(value)
    _assert_strict_kkt_point(measure, value)


def test_radial_minimum_survives_a_singular_bordered_system(monkeypatch):
    from ionbound.errors import IterationLimitError

    def singular(*_):
        raise np.linalg.LinAlgError("Singular matrix")

    # every face falls back to projected-gradient steps, which lower the ratio
    # but never land exactly on a face minimizer, so the step cap trips
    monkeypatch.setattr(np.linalg, "solve", singular)
    history = []
    with pytest.raises(IterationLimitError) as info:
        minimize_radial_ratio(default_nodes(20), None, history)
    measure, value = info.value.best
    assert value == history[-1] == radial_ratio(measure)


def test_bracket_diagnostics_describe_the_radial_minimum():
    from ionbound.beta import bracket_detail

    detail = bracket_detail(BetaSettings(node_count=60))
    history = []
    measure, _ = minimize_radial_ratio(default_nodes(60), None, history)
    assert list(detail.diagnostics) == ["dinkelbach_steps", "support_size", "kkt_residual"]
    assert detail.diagnostics["dinkelbach_steps"] == len(history) - 1
    assert detail.diagnostics["support_size"] == np.count_nonzero(measure.weights)
    assert 0.0 <= detail.diagnostics["kkt_residual"] <= 1e-10


def test_kkt_residual_hand_computed():
    from ionbound.beta import kkt_residual

    # all weight on r = 1 of {1, 2}: theta = 1 and g = 2Qw - theta r = (1, 1/2), so the
    # off-support entry sits 1/2 below the support's, over the largest node 2
    measure = RadialMeasure([1.0, 2.0], [1.0, 0.0])
    assert kkt_residual(measure) == 0.25
    dilated = RadialMeasure(measure.nodes * 37.0, measure.weights)
    assert kkt_residual(dilated) == pytest.approx(0.25, rel=1e-14)
    # both weights positive: the spread of g on the support counts instead
    assert kkt_residual(RadialMeasure([1.0, 2.0], [0.5, 0.5])) == pytest.approx(
        abs((2.0 * 1.125 - 11 / 12) - (2.0 * 1.625 - 22 / 12)) / 2.0, rel=1e-14
    )
