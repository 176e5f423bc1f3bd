import math

import numpy as np
import pytest

from conftest import random_configuration, random_rotation
from ionbound.errors import DomainError
from ionbound.kernels import (
    ParticleConfiguration,
    radial_kernel_triple,
    ratio_gradient,
    ratio_value,
    sphere_average_dipole,
    sphere_average_inverse_distance,
    w_lambda_reduced,
)
from ionbound.kernels import _energy_normalizer, _distance_extremes
from oracles import mc_dipole, mc_inverse_distance, mc_radial_kernel_triple, pair_kernel

ANTIPODAL = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]


def equilateral(radius=1.0):
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [-0.5, math.sqrt(3) / 2, 0.0],
            [-0.5, -math.sqrt(3) / 2, 0.0],
        ]
    ) * radius


# ---------------------------------------------------------------------------
# configuration and ratio
# ---------------------------------------------------------------------------

def test_configuration_invariants():
    with pytest.raises(DomainError):
        ParticleConfiguration([[1.0, 0.0, 0.0]])
    with pytest.raises(DomainError, match="shape"):
        ParticleConfiguration([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError, match="below coincidence threshold"):
        ParticleConfiguration([[1, 0, 0], [1, 0, 0]])
    with pytest.raises(DomainError, match="below coincidence threshold"):
        ParticleConfiguration([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    with pytest.raises(DomainError):
        ParticleConfiguration([[np.inf, 0, 0], [0, 0, 0]])
    # both norms underflow to 0, but their distance 3e-162 passes the coincidence test
    with pytest.raises(DomainError, match="more than one point at the origin"):
        ParticleConfiguration([[1.5e-162, 0, 0], [-1.5e-162, 0, 0], [0, 1e-151, 0]])


def test_ratio_antipodal_pair():
    rv = ratio_value(ParticleConfiguration(ANTIPODAL))
    assert rv.energy == pytest.approx(1.0, abs=1e-15)
    assert rv.normalizer == pytest.approx(2.0, abs=1e-15)
    assert rv.ratio == pytest.approx(0.5, abs=1e-15)


def test_ratio_equilateral_triangle():
    rv = ratio_value(ParticleConfiguration(equilateral()))
    assert rv.energy == pytest.approx(2 * math.sqrt(3), rel=1e-14)
    assert rv.normalizer == pytest.approx(6.0, rel=1e-14)
    assert rv.ratio == pytest.approx(1 / math.sqrt(3), rel=1e-14)


def test_ratio_scaling_invariance():
    rv = ratio_value(ParticleConfiguration(np.array(ANTIPODAL) * 7.0))
    assert rv.ratio == pytest.approx(0.5, rel=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = random_configuration(rng, int(rng.integers(2, 8)))
        base = ratio_value(ParticleConfiguration(pts)).ratio
        t = rng.uniform(1e-3, 1e3)
        scaled = ratio_value(ParticleConfiguration(pts * t)).ratio
        assert scaled == pytest.approx(base, rel=1e-12)


def test_ratio_rotation_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pts = random_configuration(rng, 5)
        base = ratio_value(ParticleConfiguration(pts)).ratio
        rot = ratio_value(ParticleConfiguration(pts @ random_rotation(rng).T)).ratio
        assert rot == pytest.approx(base, rel=1e-12)


def test_ratio_permutation_invariance_bit_exact():
    rng = np.random.default_rng(5)
    pts = random_configuration(rng, 6)
    base = ratio_value(ParticleConfiguration(pts))
    for _ in range(10):
        perm = rng.permutation(6)
        shuffled = ratio_value(ParticleConfiguration(pts[perm]))
        assert shuffled.energy == base.energy
        assert shuffled.normalizer == base.normalizer
        assert shuffled.ratio == base.ratio


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def finite_difference_gradient(pts: np.ndarray, h: float) -> np.ndarray:
    fd = np.zeros_like(pts)
    for i in range(pts.shape[0]):
        for j in range(3):
            up, down = pts.copy(), pts.copy()
            up[i, j] += h
            down[i, j] -= h
            e1, n1 = _energy_normalizer(up)
            e2, n2 = _energy_normalizer(down)
            fd[i, j] = (e1 / n1 - e2 / n2) / (2 * h)
    return fd


def test_gradient_zero_at_antipodal_pair():
    grad = ratio_gradient(ParticleConfiguration(ANTIPODAL))
    assert np.abs(grad).max() < 1e-15


def test_gradient_matches_finite_differences_on_triangle():
    # the triangle is a critical point, so the comparison needs an absolute
    # guard above the finite-difference roundoff floor (~1e-11 here)
    pts = equilateral()
    grad = ratio_gradient(ParticleConfiguration(pts))
    fd = finite_difference_gradient(pts, 1e-6 * _distance_extremes(pts)[1])
    assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd) + 1e-9


def test_gradient_suite_100_seeded_cases():
    rng = np.random.default_rng(2024)
    for case in range(100):
        n = 2 + case % 7
        pts = random_configuration(rng, n)
        grad = ratio_gradient(ParticleConfiguration(pts))
        fd = finite_difference_gradient(pts, 1e-6 * _distance_extremes(pts)[1])
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd), f"case {case}"


def test_gradient_orthogonal_to_scaling_direction():
    rng = np.random.default_rng(77)
    pts = random_configuration(rng, 5)
    grad = ratio_gradient(ParticleConfiguration(pts))
    assert abs(float((grad * pts).sum())) <= 1e-10


def test_gradient_rejects_origin_point():
    with pytest.raises(DomainError, match="gradient undefined"):
        ratio_gradient(ParticleConfiguration([[0, 0, 0], [1, 0, 0], [0, 2, 0]]))


# ---------------------------------------------------------------------------
# spherical averages
# ---------------------------------------------------------------------------

def test_newton_average_examples():
    assert sphere_average_inverse_distance([2, 0, 0], 1.0) == pytest.approx(0.5)
    assert sphere_average_inverse_distance([1, 0, 0], 3.0) == pytest.approx(1 / 3)
    assert sphere_average_inverse_distance([0, 1, 0], 1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError, match="non-negative"):
        sphere_average_inverse_distance([1, 0, 0], -1.0)
    with pytest.raises(DomainError, match="cannot both vanish"):
        sphere_average_inverse_distance([0, 0, 0], 0.0)


def test_newton_average_boundary_matches_monte_carlo():
    mean, se = mc_inverse_distance([1, 0, 0], 1.0, samples=10**6, seed=7)
    assert abs(mean - 1.0) <= 3 * se


def test_dipole_examples():
    np.testing.assert_allclose(
        sphere_average_dipole([1, 0, 0], 2.0), [-1 / 12, 0, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        sphere_average_dipole([3, 0, 0], 1.0), [-1 / 27, 0, 0], atol=1e-15
    )
    with pytest.raises(DomainError, match="center at the origin"):
        sphere_average_dipole([0, 0, 0], 1.0)
    with pytest.raises(DomainError, match="radius must be positive"):
        sphere_average_dipole([1, 0, 0], 0.0)


def test_dipole_matches_monte_carlo():
    closed = sphere_average_dipole([0, 1, 0], 1.0)
    np.testing.assert_allclose(closed, [0, -1 / 3, 0], atol=1e-15)
    mean, se = mc_dipole([0, 1, 0], 1.0, samples=10**6, seed=13)
    assert np.all(np.abs(mean - closed) <= 3 * se)


def test_newton_and_dipole_oracles_20_seeded_cases(monte_carlo_oracle_cases):
    for case, (a, s, mean, se, dmean, dse) in enumerate(monte_carlo_oracle_cases):
        assert abs(mean - sphere_average_inverse_distance(a, s)) <= 3 * se, f"case {case}"
        assert np.all(np.abs(dmean - sphere_average_dipole(a, s)) <= 3 * dse), f"case {case}"


# ---------------------------------------------------------------------------
# blended kernel and shell averages
# ---------------------------------------------------------------------------

def test_w_lambda_examples():
    assert w_lambda_reduced(1.0, 1.0, 1.0, 2.0) == pytest.approx(1.5)
    assert w_lambda_reduced(0.0, 1.0, 1.0, 2.0) == pytest.approx(8 / 3)
    assert w_lambda_reduced(0.843, 1.0, 1.0, 2.0) == pytest.approx(
        0.843 * 1.5 + 0.157 * 8 / 3, rel=1e-12
    )


def test_w_lambda_triangle_check():
    with pytest.raises(DomainError, match="outside the realizable range"):
        w_lambda_reduced(0.5, 1.0, 0.5, 2.0)
    with pytest.raises(DomainError):
        w_lambda_reduced(1.2, 1.0, 0.5, 1.0)
    with pytest.raises(DomainError, match="0 <= b <= a"):
        w_lambda_reduced(0.5, 1.0, 2.0, 2.0)


def test_w_lambda_pointwise_domination_probe():
    """The blended kernel only dominates in integrated form; pointwise
    counterexamples exist and must be reported, not asserted away."""
    violations = []
    rng = np.random.default_rng(5)
    lams = np.linspace(0.0, 1.0, 11)
    for case in range(200):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        a, b = max(np.linalg.norm(x), np.linalg.norm(y)), min(
            np.linalg.norm(x), np.linalg.norm(y)
        )
        c = float(np.linalg.norm(x - y))
        energy = pair_kernel(x, y)
        for lam in lams:
            w = w_lambda_reduced(float(lam), a, b, c)
            if w > energy + 1e-12:
                violations.append((case, float(lam), w - energy))
    # the antipodal pair at lambda = 1 is a known counterexample
    anti = w_lambda_reduced(1.0, 1.0, 1.0, 2.0) - pair_kernel([1, 0, 0], [-1, 0, 0])
    assert anti == pytest.approx(0.5)
    print(f"\npointwise domination probe: {len(violations)} violations in 200x11 samples")


def test_radial_kernel_triple_examples():
    full, k1, k2 = radial_kernel_triple(1.0, 2.0)
    assert (full, k1, k2) == pytest.approx((2.5, 2.5, 2.5), rel=1e-15)
    assert radial_kernel_triple(1.0, 1.0) == pytest.approx((2.0, 2.0, 2.0), rel=1e-15)
    with pytest.raises(DomainError, match="shell radii must be positive"):
        radial_kernel_triple(0.0, 1.0)


def test_radial_kernel_triple_equality_on_seeded_pairs():
    rng = np.random.default_rng(21)
    for _ in range(100):
        r, s = rng.uniform(0.05, 20.0, size=2)
        full, k1, k2 = radial_kernel_triple(r, s)
        assert abs(full - k1) < 1e-12 * full
        assert abs(full - k2) < 1e-12 * full


def test_radial_kernel_triple_matches_monte_carlo():
    closed = np.array(radial_kernel_triple(1.0, 2.0))
    means, ses = mc_radial_kernel_triple(1.0, 2.0, samples=10**6, seed=31)
    assert np.all(np.abs(means - closed) <= 3 * ses)
