import hashlib
import math
import random
import struct
from collections import deque

import numpy as np
import pytest

from conftest import random_configuration
from oracles import (
    reference_evaluate_trial,
    reference_lbfgs_direction,
    sandwich_at_r,
    sandwich_maximizing_r,
)
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
    COINCIDENCE_RTOL,
    ParticleConfiguration,
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
# normalization: a trial's points are rescaled to sum|x_i| = N
# ---------------------------------------------------------------------------

def _normalized(points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    return np.reshape(alpha._evaluate_trial(points.ravel().tolist())[1], points.shape)


def test_normalize_scales_to_n():
    pts = _normalized([[2.0, 0, 0], [-2.0, 0, 0]])
    np.testing.assert_allclose(pts, [[1, 0, 0], [-1, 0, 0]], atol=1e-15)


def test_normalize_idempotent():
    once = _normalized(equilateral().points)
    twice = _normalized(once)
    np.testing.assert_array_equal(once, twice)


def test_normalize_preserves_ratio():
    rng = np.random.default_rng(8)
    for _ in range(20):
        pts = random_configuration(rng, 5)
        cfg = ParticleConfiguration(pts)
        normalized = ParticleConfiguration(_normalized(cfg.points))
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


def test_negative_seed_is_a_domain_error():
    # random.Random seeds from |x|, so seed -1 at N = 24 would start where seed 0
    # at N = 1000 starts: (-1 << 30) | (24 << 20) == -(1000 << 20)
    assert (-1 << 30) | (24 << 20) == -(1000 << 20)
    with pytest.raises(DomainError, match="seed must be non-negative"):
        OptimizerSettings(seed=-1)
    with pytest.raises(DomainError, match="seed must be non-negative"):
        OptimizerSettings(seed=0)._replace(seed=-1)
    assert OptimizerSettings(seed=2**64 - 1).seed == 2**64 - 1


# ---------------------------------------------------------------------------
# alpha_sandwich
# ---------------------------------------------------------------------------

def test_sandwich_n2_formula():
    beta = 0.8218
    expected = 2.0 * (beta - 3.0 * (beta / 6.0) ** (1 / 3) * 2 ** (-2 / 3))
    bound = alpha_sandwich(2, beta)
    assert bound == pytest.approx(expected, rel=1e-14)
    assert bound < 0  # vacuous but well-defined at N = 2


@pytest.mark.parametrize("beta", [1e-300, 0.25, 0.5, 0.8218, 0.8701860337314008, 1 - 2**-53])
def test_sandwich_keeps_its_inline_order_of_operations(beta):
    # (3 (beta/6)^(1/3)) N^(-2/3): the bits of every alpha row and golden digest
    for n in range(2, 257):
        inline = n / (n - 1) * (beta - 3.0 * (beta / 6.0) ** (1.0 / 3.0) * n ** (-2.0 / 3.0))
        assert alpha_sandwich(n, beta).hex() == inline.hex()


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

# sha256 of the little-endian doubles of _initial_points(n, OptimizerSettings(seed=seed), k)
INITIAL_POINTS_SHA256 = {
    (2, 0, 7): "a0e7466b7682e0ae0f0b588a8e69803bd37dd145be3310645f8903dd521b6345",
    (5, 3, 7): "e2dbb79e46c5a4fad97b6f4868327650cc717228b98c0bf44c5df1710ff9c0e7",
    (8, 17, 7): "f95e486c36f84d670eb63f38f620627081e300799b7fe6b8fe41bc1913b587e8",
    (12, 63, 7): "15c98bb6ee6a1a6f299839afe97acd186769e91ad4b5c82c6f72240b4df25e6e",
    (12, 1, 0): "1494f8cac6dd581985c90d491b90d7fe5c5dc19a54cf2a762d9f5513ad700bc6",
    (7, 5, 2**64 - 1): "f3f0882e0517538c3644a345cd0dd2ea26cf85d2d44166dc30239f87da4b77c0",
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
            config = ParticleConfiguration(x.reshape(n, 3))
            return ratio_value(config).ratio, np.ravel(ratio_gradient(config))

        polished = scipy_optimize.minimize(
            ratio_and_gradient, np.ravel(ours.config.points), jac=True, method="BFGS",
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
            accepted.append(np.reshape(trial[1], (-1, 3)))
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
    ratio, scaled, grad = alpha._evaluate_trial(pts.ravel().tolist())
    scaled, grad = np.reshape(scaled, (5, 3)), np.reshape(grad, (5, 3))
    assert ratio == pytest.approx(ratio_value(ParticleConfiguration(pts)).ratio, rel=1e-13)
    assert np.linalg.norm(scaled, axis=1).sum() == pytest.approx(5.0, rel=1e-14)
    np.testing.assert_allclose(grad, ratio_gradient(ParticleConfiguration(scaled)), rtol=1e-12)

    coincident = pts.copy()
    coincident[1] = coincident[0] + 1e-13 * np.abs(pts).max()
    near_origin = pts.copy()
    near_origin[2] *= 1e-11
    for bad in (coincident, near_origin, np.zeros((3, 3))):
        assert alpha._evaluate_trial(bad.ravel().tolist()) is None


def _uniform(rng: random.Random, count: int, scale: float = 1.0) -> list:
    # exact arithmetic on the stream of random(), so the cases are the same everywhere
    return [scale * (2.0 * rng.random() - 1.0) for _ in range(count)]


def _evaluator_cases():
    """Flat coordinate lists: 3,000 generic and descent-sized cases at N = 2..24
    over twelve orders of magnitude, then guard, boundary and non-finite cases."""
    rng = random.Random(24)
    for k in range(3000):
        n = 2 + k % 23
        pts = _uniform(rng, 3 * n, math.ldexp(1.0, rng.randrange(-20, 21)))
        if k % 5 == 0:  # a descent-sized step from a generic configuration
            pts = [x + 0.05 * d for x, d in zip(_generic(rng, n), _uniform(rng, 3 * n))]
        yield pts
    inf, nan = math.inf, math.nan
    base = _generic(rng, 6)
    for i, value in ((0, 0.5 * ORIGIN_GUARD), (1, 2.0 * ORIGIN_GUARD)):
        near_origin = list(base)
        near_origin[3 * i:3 * i + 3] = [0.0, 0.6 * value, 0.8 * value]
        yield near_origin
    for gap in (0.0, 1e-13, 1e-11):
        coincident = list(base)
        coincident[9:12] = [coincident[6], coincident[7] + 0.6 * gap, coincident[8] + 0.8 * gap]
        yield coincident
    for index, value in ((0, nan), (7, inf), (17, -inf)):
        bad = list(base)
        bad[index] = value
        yield bad
    yield [nan] * 12
    yield [inf, 0.0, 0.0, -inf, 0.0, 0.0]
    yield [inf, 0.0, 0.0, inf, 1.0, 0.0, 0.0, inf, 0.0]
    yield [x * 1e200 for x in base]
    yield [x * 1e-200 for x in base]
    yield [0.0] * 9


def _generic(rng: random.Random, n: int) -> list:
    """Points in the cube [-1, 1)^3 with norms and pair distances above 0.1."""
    while True:
        pts = _uniform(rng, 3 * n)
        triples = list(zip(pts[0::3], pts[1::3], pts[2::3]))
        if all(x * x + y * y + z * z > 0.01 for x, y, z in triples) and all(
                (a - x) * (a - x) + (b - y) * (b - y) + (c - z) * (c - z) > 0.01
                for i, (a, b, c) in enumerate(triples) for x, y, z in triples[i + 1:]):
            return pts


def _doubles(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _relative_gap(ours, reference) -> float:
    """max |ours - reference| over max |reference|, elementwise over flat lists."""
    reference = np.ravel(reference)
    return float(np.abs(np.subtract(ours, reference)).max() / np.abs(reference).max())


# sha256 of every outcome of _evaluate_trial on _evaluator_cases(), and of
# _lbfgs_direction on _direction_cases(): b"-" for None, else the little-endian
# doubles of the ratio, the points and the gradient (the direction)
EVALUATE_TRIAL_SHA256 = "2a3beea831fa7ee641b7e95ea71bd1e97fc1c7f72d10c5cb9fca2991c3e54df3"
LBFGS_DIRECTION_SHA256 = "b2fe6092cb9ea598a71faf5c6356ec01e3c79ec53076f67c6fb698c09c2d8104"


def test_evaluate_trial_matches_the_reference_bit_for_bit():
    digest = hashlib.sha256()
    outcomes = set()
    for pts in _evaluator_cases():
        trial = alpha._evaluate_trial(pts)
        digest.update(b"-" if trial is None else _doubles([trial[0], *trial[1], *trial[2]]))
        outcomes.add(trial is None)
    assert outcomes == {True, False}
    assert digest.hexdigest() == EVALUATE_TRIAL_SHA256


def test_evaluate_trial_agrees_with_the_numpy_oracle():
    worst = 0.0
    with np.errstate(all="ignore"):  # the non-finite cases warn in the oracle
        for pts in _evaluator_cases():
            ours = alpha._evaluate_trial(pts)
            reference = reference_evaluate_trial(
                np.reshape(pts, (-1, 3)), ORIGIN_GUARD, COINCIDENCE_RTOL)
            if ours is None:
                # the oracle lets a NaN slip past its guards
                assert reference is None or not np.isfinite(reference[0]), pts
                continue
            ratio, points, grad = reference
            worst = max(worst, abs(ours[0] - ratio) / ratio,
                        _relative_gap(ours[1], points), _relative_gap(ours[2], grad))
    assert worst <= 1e-13


def _direction_cases():
    """(gradient, pairs) cases at N = 2..24: up to 10 pairs, of which the deque
    keeps the last 8, mostly with positive curvature, and in every tenth case
    with whatever curvature comes, so that the recursion may not descend."""
    rng = random.Random(8)
    for k in range(1000):
        n = 2 + k % 23
        grad = _uniform(rng, 3 * n, math.ldexp(1.0, rng.randrange(-20, 7)))
        pairs = deque(maxlen=alpha._MEMORY)
        for _ in range(k % 11):
            s = _uniform(rng, 3 * n, math.ldexp(1.0, rng.randrange(-13, 1)))
            y = [si * (0.1 + 9.9 * rng.random()) + 0.5 * (k % 3) * d
                 for si, d in zip(s, _uniform(rng, 3 * n))]
            sy = math.fsum(map(float.__mul__, s, y))
            if sy > 0.0 or k % 10 == 9:
                pairs.append((s, y, 1.0 / sy, sy / math.fsum(map(float.__mul__, y, y))))
        yield grad, pairs


def test_lbfgs_direction_matches_the_reference_bit_for_bit():
    digest = hashlib.sha256()
    cleared = 0
    for grad, pairs in _direction_cases():
        had_pairs = bool(pairs)
        direction = alpha._lbfgs_direction(grad, pairs)
        assert len(direction) == len(grad)
        digest.update(_doubles(direction))
        cleared += had_pairs and not pairs
    assert cleared  # the not-descending branch ran
    assert digest.hexdigest() == LBFGS_DIRECTION_SHA256


def test_lbfgs_direction_agrees_with_the_numpy_oracle():
    worst = 0.0
    for grad, pairs in _direction_cases():
        reference_pairs = [(np.array(s), np.array(y), rho) for s, y, rho, _ in pairs]
        reference = reference_lbfgs_direction(np.array(grad), reference_pairs, alpha._STEP_INIT)
        ours = alpha._lbfgs_direction(grad, pairs)
        assert len(pairs) == len(reference_pairs)  # both cleared, or neither
        worst = max(worst, _relative_gap(ours, reference))
    assert worst <= 1e-13


@pytest.mark.parametrize("key", list(INITIAL_POINTS_SHA256), ids=str)
def test_initial_points_unchanged(key):
    n, k, seed = key
    pts = _initial_points(n, OptimizerSettings(seed=seed), k)
    assert len(pts) == 3 * n
    assert hashlib.sha256(_doubles(pts)).hexdigest() == INITIAL_POINTS_SHA256[key]


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
