import math
import random
import re
import time

import numpy as np
import pytest

from ionbound import beta
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
    for x in np.linspace(0.8, 1.0, 500):
        point = g_of_lambda(float(x))
        lam, lam_p = point.lam, point.lambda_prime
        # the defining equation of lambda', which g_of_lambda solves
        residual = ((lam - lam_p) - 2.0 * math.sqrt((2.0 / 3.0) * lam_p * (1.0 - lam))
                    - 2.0 * math.sqrt(lam * (1.0 - lam)))
        assert abs(residual) < 1e-10
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
    from ionbound.beta import _min_over_c, w_lambda_reduced

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
        dilated = RadialMeasure(np.asarray(measure.nodes) * t, measure.weights)
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


def test_radial_measure_is_an_immutable_named_tuple_checked_on_every_copy():
    measure = RadialMeasure([1.0, 2.0], [0.25, 0.75])  # positional, as the bench builds one
    nodes, weights = measure
    assert nodes is measure.nodes and weights is measure.weights
    assert measure == ((1.0, 2.0), (0.25, 0.75))  # tuples of floats, immutable
    assert all(type(x) is float for x in (*nodes, *weights))
    with pytest.raises(AttributeError):
        measure.nodes = np.array([1.0, 3.0])
    with pytest.raises(AttributeError):
        measure.extra = 1.0
    moved = measure._replace(nodes=[2.0, 3.0])
    assert isinstance(moved, RadialMeasure) and moved.nodes == (2.0, 3.0)
    with pytest.raises(DomainError, match="node grid must be positive, strictly increasing"):
        measure._replace(nodes=[2.0, 1.0])
    with pytest.raises(DomainError, match="weights must sum to 1 within 1e-12"):
        measure._replace(weights=[0.5, 0.6])
    with pytest.raises(DomainError, match="weights must sum to 1 within 1e-12"):
        RadialMeasure._make(([1.0, 2.0], [0.5, 0.6]))


def test_radial_measure_leaves_the_callers_arrays_writable():
    nodes, weights = np.array([1.0, 2.0]), np.array([0.5, 0.5])
    measure = RadialMeasure(nodes, weights)
    nodes[0], weights[:] = 0.5, (0.25, 0.75)  # the caller's arrays, not the measure's
    assert measure.nodes == (1.0, 2.0) and measure.weights == (0.5, 0.5)
    assert nodes.flags.writeable and weights.flags.writeable


def test_beta_settings_are_checked_on_every_copy():
    settings = BetaSettings(node_count=20)
    assert settings == BetaSettings(1e-10, 20) and settings.node_range == (0.05, 20.0)
    with pytest.raises(AttributeError):
        settings.node_count = 0
    with pytest.raises(DomainError, match="node count must lie in"):
        settings._replace(node_count=0)
    with pytest.raises(DomainError, match="node grid must be positive, strictly increasing"):
        BetaSettings(node_range=(2.0, 1.0))
    with pytest.raises(DomainError, match="tolerance must be positive"):
        settings._replace(g_tolerance=math.nan)


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
    assert len(default_nodes(MAX_NODE_COUNT, (1.0, 2.0))) == MAX_NODE_COUNT
    # by message only: the check comes before any array exists
    with pytest.raises(DomainError, match=f"node count must lie in \\[1, {MAX_NODE_COUNT}\\]"):
        default_nodes(10**8)


# rejected for their span or order, not their squares: the kernel runs on the nodes scaled
# near 1, so 1e100:1e160 and 1e-200:1e-100 run (test_cli, and the seeded sweep below)
@pytest.mark.parametrize("node_range", [(1e100, 1e201), (1e-200, 1e-99), (1.0, 1.3e154),
                                        (1e-170, 1.0), (0.0, 1.0), (2.0, 1.0)])
def test_default_nodes_rejects_ranges_whose_squares_leave_the_floats(node_range):
    with pytest.raises(DomainError, match="^node grid must be positive, strictly increasing"):
        default_nodes(10, node_range)


@pytest.mark.parametrize("count, node_range", [
    (200, (0.05, 20.0)), (5000, (0.05, 20.0)), (5000, (1.0, 2.0)), (30, (0.05, 20.0)),
    (3, (1e-50, 1e50)), (50, (1e-50, 1e50)), (50, (1.0, 1e100)), (2, (0.05, 20.0)),
])
def test_default_nodes_are_log_spaced(count, node_range):
    nodes = default_nodes(count, node_range)
    assert type(nodes) is tuple and len(nodes) == count
    assert nodes[0] == node_range[0] and nodes[-1] == node_range[1]
    assert all(a < b for a, b in zip(nodes, nodes[1:]))
    # the ratio q is good to a few ulps, and each of count multiplications rounds once
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lo, hi = map(mpmath.mpf, node_range)
        exact = [lo * (hi / lo) ** (mpmath.mpf(i) / (count - 1)) for i in range(count)]
        relative = max(abs(x / e - 1) for x, e in zip(nodes, exact))
    assert relative <= 2 * count * np.finfo(float).eps


def test_default_nodes_on_a_span_of_one_and_two_ulps():
    assert default_nodes(3, (1.0, 1.0000000000000004)) == (
        1.0, 1.0000000000000002, 1.0000000000000004)
    # on a span of one ulp (of two, for 4 nodes) no q > 1 has q^(count-1) <= hi/lo, so
    # the grid would repeat its first node; on the third range q > 1, but the rounded
    # products reach hi one node early
    for count, node_range in [(3, (1.0, 1.0000000000000002)), (4, (1.0, 1.0000000000000004)),
                              (5, (210.61855145216384, 210.618551452164))]:
        message = f"node range {node_range[0]!r}:{node_range[1]!r} is too narrow for {count} "
        with pytest.raises(DomainError, match=re.escape(message + "distinct nodes")):
            default_nodes(count, node_range)
        with pytest.raises(DomainError, match="too narrow"):
            BetaSettings(node_count=count, node_range=node_range)


def test_a_beta_call_builds_its_node_grid_once():
    beta._node_grid.cache_clear()
    bracket_detail(BetaSettings(node_count=30))  # the settings check builds it, the solve reuses it
    assert beta._node_grid.cache_info()[:2] == (1, 1)  # hits, misses


def test_default_nodes_rejects_spans_above_1e100():
    from ionbound.beta import MAX_NODE_SPAN

    assert MAX_NODE_SPAN == 1e100
    assert default_nodes(3, (1e-50, 1e50))[-1] == 1e50  # hi/lo = 1e100 is admitted
    for node_range in [(1.0, 1.0000001e100), (1e-150, 1e150), (1e-160, 1e150), (1.0, math.inf)]:
        with pytest.raises(DomainError, match=re.escape("hi/lo <= 1e+100")):
            default_nodes(10, node_range)


def test_minimize_radial_ratio_default_grid(radial_minimum_default):
    measure, value, history, _ = radial_minimum_default
    assert value == pytest.approx(0.8702, abs=5e-4)
    _, g_max = maximize_g(1e-10)
    assert value >= g_max - 1e-4
    assert value <= TRIAL_MEASURE_ANALYTIC + 1e-4
    # minimizer beats the feasible warm start
    nodes = default_nodes()
    start = RadialMeasure(nodes, beta._start_weights(nodes))
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
    # on 10:20 the solve runs on the nodes times 2^-4, and the payload keeps the caller's
    nodes = default_nodes(20, (10.0, 20.0))
    assert beta._unit(nodes) != nodes
    with pytest.raises(IterationLimitError) as info:
        minimize_radial_ratio(nodes)
    measure, value = info.value.best
    assert measure.nodes == nodes and value == radial_ratio(measure)

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

    w = np.asarray(measure.weights)
    assert w.min() >= 0.0
    assert abs(float(w.sum()) - 1.0) <= 1e-12
    assert value == radial_ratio(measure)
    assert kkt_residual(measure) <= 1e-10
    # second order: the ratio's Hessian is positive definite on the support's face
    support = np.flatnonzero(w)
    r = np.asarray(measure.nodes)[support]
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
    nodes = np.asarray(default_nodes(30))
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
     (2, (0.05, 20.0)), (3, (0.05, 20.0)), (500, (1.0, 1.000000001))],
)
def test_radial_minimum_on_hard_grids(count, node_range):
    t0 = time.perf_counter()
    measure, value = minimize_radial_ratio(
        settings=BetaSettings(node_count=count, node_range=node_range)
    )
    assert time.perf_counter() - t0 < 5.0
    assert math.isfinite(value)
    _assert_strict_kkt_point(measure, value)


def _dense_kernel(r: np.ndarray) -> np.ndarray:
    return 0.5 * (r[:, None] ** 2 + r[None, :] ** 2) / np.maximum.outer(r, r)


@pytest.mark.parametrize("count, node_range", [
    (200, (0.05, 20.0)), (200, (1.0, 1.000000001)), (500, (1e-6, 1e6)),
    (50, (1.0, 1e100)), (50, (1e-50, 1e50)),
])
def test_semiseparable_product_matches_the_dense_kernel(count, node_range):
    from ionbound.beta import _gradient

    r = np.asarray(default_nodes(count, node_range))
    q = _dense_kernel(r)
    rng = np.random.default_rng(count)
    for x in (rng.standard_normal(count), rng.uniform(-1.0, 1.0, count) * r ** -1.5):
        got = 0.5 * np.asarray(_gradient(r.tolist(), x.tolist()))
        # each of the O(n) sums rounds at most n times on terms bounded by |Q| |x|
        bound = 4 * count * np.finfo(float).eps * (np.abs(q) @ np.abs(x))
        assert np.all(np.abs(got - q @ x) <= bound)
        theta = 0.87
        gradient = np.asarray(_gradient(r.tolist(), x.tolist(), theta))
        assert np.all(np.abs(gradient - (2.0 * (q @ x) - theta * r)) <= 2 * bound + 1e-15 * r)


def test_face_solve_matches_the_bordered_dense_solve():
    from ionbound.beta import _face_solve

    rng = np.random.default_rng(30)
    nodes = np.asarray(default_nodes())
    for _ in range(60):
        k = int(rng.integers(2, 120))
        r = nodes[np.sort(rng.choice(nodes.size, size=k, replace=False))]
        g = rng.standard_normal(k)
        q = _dense_kernel(r)
        bordered = np.block([[2.0 * q, np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]])
        want = np.linalg.solve(bordered, np.append(-g, 0.0))[:-1]
        got = np.asarray(_face_solve(r.tolist(), g.tolist()))
        # a backward-stable solve of ZᵀQZ errs by about its condition number times eps
        z = np.vstack([np.eye(k - 1), np.zeros((1, k - 1))]) - np.vstack(
            [np.zeros((1, k - 1)), np.eye(k - 1)])
        cond = np.linalg.cond(z.T @ q @ z)
        tolerance = 10 * k * cond * np.finfo(float).eps * np.abs(want).max()
        assert np.abs(got - want).max() <= tolerance
        assert abs(got.sum()) <= 4 * k * np.finfo(float).eps * np.abs(got).sum()
    # one node leaves no step, and a non-finite pivot is a singular system
    assert _face_solve([2.0], [0.7]) == [0.0]
    assert _face_solve([1.0, math.inf], [0.0, 1.0]) is None


def test_radial_minimum_survives_a_singular_bordered_system(monkeypatch):
    from ionbound import beta
    from ionbound.errors import IterationLimitError

    # every face falls back to projected-gradient steps, which lower the ratio
    # but never land exactly on a face minimizer, so the step cap trips
    monkeypatch.setattr(beta, "_face_solve", lambda nodes, gradient: None)
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
    assert list(detail.diagnostics) == [
        "dinkelbach_steps", "support_size", "kkt_residual", "continuum_gap"]
    assert detail.diagnostics["dinkelbach_steps"] == len(history) - 1
    assert detail.diagnostics["support_size"] == np.count_nonzero(measure.weights)
    assert 0.0 <= detail.diagnostics["kkt_residual"] <= 1e-10
    gap = detail.radial_minimum - beta.continuum_optimum().value
    assert detail.diagnostics["continuum_gap"] == gap > 0.0


def test_kkt_residual_hand_computed():
    from ionbound.beta import kkt_residual

    # all weight on r = 1 of {1, 2}: theta = 1 and g = 2Qw - theta r = (1, 1/2), so the
    # off-support entry sits 1/2 below the support's, over the largest node 2
    measure = RadialMeasure([1.0, 2.0], [1.0, 0.0])
    assert kkt_residual(measure) == 0.25
    dilated = RadialMeasure(np.asarray(measure.nodes) * 37.0, measure.weights)
    assert kkt_residual(dilated) == pytest.approx(0.25, rel=1e-14)
    # both weights positive: the spread of g on the support counts instead
    assert kkt_residual(RadialMeasure([1.0, 2.0], [0.5, 0.5])) == pytest.approx(
        abs((2.0 * 1.125 - 11 / 12) - (2.0 * 1.625 - 22 / 12)) / 2.0, rel=1e-14
    )


# ---------------------------------------------------------------------------
# the continuum optimum and the solve's start
# ---------------------------------------------------------------------------

def test_continuum_optimum_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    optimum = beta.continuum_optimum()
    with mpmath.workdps(40):
        r0 = mpmath.exp(4 * mpmath.pi / (3 * mpmath.sqrt(3)))
        value = 1 / (1 + mpmath.exp(-2 * mpmath.pi / (3 * mpmath.sqrt(3))) / 2)
        omega = mpmath.sqrt(3) / 2

        def density(r):
            return mpmath.cos(omega * mpmath.log(r / mpmath.sqrt(r0))) / r ** 1.5

        assert optimum.support_end == float(r0)
        assert optimum.value == float(value)
        for r in (1.0, 1.5, 2.0, 5.0, 11.0, optimum.support_end):
            assert optimum.density(r) == pytest.approx(float(density(mpmath.mpf(r))), rel=4e-16)
    assert optimum.density(0.999) == optimum.density(11.3) == 0.0
    with mpmath.workdps(17):
        # the density's ratio, by quadrature split at the kernel's diagonal max(r, s) = r
        quad = lambda f, lo, hi: mpmath.quad(f, [lo, hi])
        mass = quad(density, 1, r0)
        normalizer = quad(lambda r: r * density(r), 1, r0)
        form = quad(lambda r: density(r) * (r * quad(density, 1, r)
                                            + quad(lambda s: s * s * density(s), 1, r) / r), 1, r0)
        assert float(form / normalizer / mass) == pytest.approx(optimum.value, rel=1e-15)


def test_discrete_optima_converge_to_the_continuum_at_second_order():
    gaps = []
    for count in (200, 400, 800, 1600, 3200):
        _, value = minimize_radial_ratio(settings=BetaSettings(node_count=count, node_range=(1.0, 12.0)))
        gaps.append(value - beta.continuum_optimum().value)
    assert gaps[0] == pytest.approx(5.015e-6, rel=1e-3)
    assert gaps[-1] == pytest.approx(1.942e-8, rel=1e-3)
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.99 < coarse / fine < 4.03


def test_series_log_and_cos_agree_with_libm_to_a_few_ulps():
    lo, hi = 1.0 / beta._SQRT_R0, beta._SQRT_R0
    xs = [lo + (hi - lo) * i / 20000 for i in range(20001)] + [1.0 + i * 2e-16 for i in range(-50, 51)]
    for x in xs:
        if x != 1.0:
            assert abs(beta._log(x) - math.log(x)) <= 6 * math.ulp(math.log(x)), x
    assert beta._log(1.0) == 0.0
    for i in range(-10000, 10001):
        t = math.pi / 3 * i / 10000
        assert abs(beta._cos(t) - math.cos(t)) <= 2 * math.ulp(math.cos(t)), t


def _count_face_solves(monkeypatch) -> list:
    calls, face_solve = [], beta._face_solve

    def counting(nodes, gradient):
        calls.append(len(nodes))
        return face_solve(nodes, gradient)

    monkeypatch.setattr(beta, "_face_solve", counting)
    return calls


@pytest.mark.parametrize("count, node_range, most", [
    (200, (0.05, 20.0), 4), (2000, (0.05, 20.0), 6), (5000, (0.05, 20.0), 6), (500, (1e-6, 1e6), 6),
    (200, (1.0, 2.0), 4), (200, (1.0, 5.0), 4), (200, (10.0, 20.0), 4),
])
def test_the_continuum_start_leaves_few_face_solves(monkeypatch, count, node_range, most):
    calls = _count_face_solves(monkeypatch)
    measure, _ = minimize_radial_ratio(settings=BetaSettings(node_count=count, node_range=node_range))
    assert len(calls) <= most
    assert beta.kkt_residual(measure) <= 1e-10


def test_a_narrow_range_starts_on_every_node_and_a_coarse_grid_starts_uniform():
    # 10:20 and 1:2 are narrower than R0, so the placed support [s, s R0] contains them
    for node_range in ((10.0, 20.0), (1.0, 2.0)):
        assert all(w > 0 for w in beta._start_weights(default_nodes(200, node_range)))
    # no node of 50 on 1:1e100, 110 apart, lies in [s, s R0]
    assert beta._start_weights(default_nodes(50, (1.0, 1e100))) == (1 / 50,) * 50


@pytest.mark.parametrize("count, node_range, dilated", [
    (50, (1.0, 1e100), (1e-50, 1e50)), (200, (1.0, 2.0), (10.0, 20.0)), (200, (1.0, 5.0), (0.2, 1.0)),
    (200, (0.05, 20.0), (1.0, 400.0)), (200, (1.0, 1.001), (1000.0, 1001.0)),
    (100, (1.0, 8.0), (0.125, 1.0)), (200, (0.05, 20.0), (0.05 * 2.0**1000, 20.0 * 2.0**1000)),
])
def test_the_radial_minimum_depends_only_on_hi_over_lo(count, node_range, dilated):
    _, value = minimize_radial_ratio(default_nodes(count, node_range))
    _, again = minimize_radial_ratio(default_nodes(count, dilated))
    assert abs(value - again) <= 4 * math.ulp(value)


@pytest.mark.parametrize("nodes", [
    [], [math.nan, 1.0], [1.0, math.nan], [1.0, math.nan, 2.0], [1.0, math.inf], [1.0, 1e200],
    [1e-200, 1.0], [0.0, 1.0], [2.0, 1.0],
])
def test_bad_nodes_are_a_one_line_domain_error_before_the_start(monkeypatch, nodes):
    monkeypatch.setattr(beta, "_start_weights", lambda r: pytest.fail("the start was computed"))
    with pytest.raises(DomainError, match="^node grid must be positive, strictly increasing") as error:
        minimize_radial_ratio(nodes)
    assert "\n" not in str(error.value)
    if nodes:
        with pytest.raises(DomainError, match="^node grid must be positive, strictly increasing"):
            RadialMeasure(nodes, [1.0 / len(nodes)] * len(nodes))


def test_a_seeded_sweep_of_ranges_runs_and_is_bit_identical_under_power_of_two_dilation():
    # lo from 1e-300 to 1e300, hi/lo up to 1e100 (with hi finite), 2-300 nodes; each grid is
    # then carried by 2^j to ends near 2^1000 or 2^-1000, where its squares leave the floats
    rng = random.Random(15)
    for _ in range(40):
        lo = 10.0 ** rng.uniform(-300.0, 300.0)
        hi = lo * 10.0 ** rng.uniform(0.001, min(100.0, math.log10(1.7e308 / lo)))
        count = rng.randint(2, 300)
        nodes = default_nodes(count, (lo, hi))
        measure, value = minimize_radial_ratio(nodes)
        assert math.isfinite(value) and measure.nodes == nodes
        j = 1000 - math.frexp(hi)[1] if lo * hi >= 1.0 else -1000 - math.frexp(lo)[1]
        dilated = default_nodes(count, (math.ldexp(lo, j), math.ldexp(hi, j)))
        assert dilated == tuple(math.ldexp(x, j) for x in nodes)
        moved, again = minimize_radial_ratio(dilated)
        assert (again, moved.weights) == (value, measure.weights), (count, lo, hi)
