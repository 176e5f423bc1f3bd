"""Independent numerical oracles for the closed forms in ionbound.

Seeded Monte Carlo estimates of the spherical averages and shell averages in
``ionbound.kernels``, a Gauss-Legendre quadrature of the radial trial measure
behind ``ionbound.beta.TRIAL_MEASURE_ANALYTIC``, the bare pair kernel, and the
shell family whose maximum is ``ionbound.alpha.alpha_sandwich``.  numpy only.
"""

import numpy as np

MC_DEFAULT_SAMPLES = 10**6


def uniform_sphere_samples(count: int, seed: int) -> np.ndarray:
    """Uniform unit vectors from a seeded generator, via normalized Gaussians."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def mc_inverse_distance(
    a, s: float, samples: int = MC_DEFAULT_SAMPLES, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of 1/|a + s*w| over the sphere."""
    a = np.asarray(a, dtype=float)
    w = uniform_sphere_samples(samples, seed)
    vals = 1.0 / np.linalg.norm(a[None, :] + s * w, axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples))


def mc_dipole(
    a, s: float, samples: int = MC_DEFAULT_SAMPLES, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise Monte Carlo mean and standard error of w/|a + s*w|."""
    a = np.asarray(a, dtype=float)
    w = uniform_sphere_samples(samples, seed)
    vals = w / np.linalg.norm(a[None, :] + s * w, axis=1, keepdims=True)
    # the spread over a contiguous copy is about twice as fast as the strided one
    return vals.mean(axis=0), np.ascontiguousarray(vals.T).std(axis=1, ddof=1) / np.sqrt(samples)


def mc_radial_kernel_triple(
    r: float, s: float, samples: int = MC_DEFAULT_SAMPLES, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo shell-shell averages of the three un-averaged kernels.

    Samples x on the radius-r shell and y independently on the radius-s
    shell; returns (means, standard errors) for (full, kernel1, kernel2).
    """
    x = r * uniform_sphere_samples(samples, seed)
    y = s * uniform_sphere_samples(samples, seed + 1)
    d = np.linalg.norm(x - y, axis=1)
    big, small = max(r, s), min(r, s)
    full = (r * r + s * s) / d
    kernel1 = big + small * small / d
    kernel2 = d + (2.0 / 3.0) * small * small / big
    stacked = np.stack([full, kernel1, kernel2])
    return stacked.mean(axis=1), stacked.std(axis=1, ddof=1) / np.sqrt(samples)


def trial_measure_quadrature(nodes: int = 64) -> tuple[float, float]:
    """Radial ratio and normalization of the density (3/4) r^(-3/2) on [1, 9].

    The ratio's numerator is the ordered double integral of (r^2 + s^2)/s over
    1 <= r <= s <= 9, with the inner radius mapped as r = 1 + (s - 1) t; both
    integrals use one ``nodes``-point Gauss-Legendre rule per dimension.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    t, w = (x + 1.0) / 2.0, w / 2.0
    s, ws = 1.0 + 8.0 * t, 8.0 * w
    r = 1.0 + np.outer(s - 1.0, t)
    inner = (s - 1.0) * ((0.75 * r**-1.5 * (r**2 + s[:, None] ** 2)) @ w)
    density = 0.75 * s**-1.5
    return float(ws @ (density * inner / s)) / float(ws @ (s * density)), float(ws @ density)


def pair_kernel(x, y) -> float:
    """(|x|^2 + |y|^2) / |x - y| for two distinct points of R^3."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float((x @ x + y @ y) / np.linalg.norm(x - y))


def sandwich_at_r(n: int, beta_lower: float, r: float) -> float:
    """Lower bound on the N-point ratio from shells of radius r in (0, 1]:
    N/(N-1) (beta - (2 r^2 / 3) beta - 1/(r N))."""
    return n / (n - 1) * (beta_lower - (2.0 * r * r / 3.0) * beta_lower - 1.0 / (r * n))


def sandwich_maximizing_r(n: int, beta_lower: float) -> float:
    """The shell radius (4 beta N / 3)^(-1/3) that maximizes ``sandwich_at_r``."""
    return (4.0 * beta_lower * n / 3.0) ** (-1.0 / 3.0)
