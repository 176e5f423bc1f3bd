"""Independent numerical oracles for the closed forms in ionbound.

The spherical-average and shell-average identities behind the radial kernel
of ``ionbound.beta``, with their seeded Monte Carlo estimates; a
Gauss-Legendre quadrature of the radial trial measure behind
``ionbound.beta.TRIAL_MEASURE_ANALYTIC``; the bare pair kernel, the
shell family whose maximum is ``ionbound.alpha.alpha_sandwich``, and numpy
copies of the descent's guarded evaluator and L-BFGS direction, which the
Python-float ones must match to 1e-13 relative.  numpy only.
"""

import math

import numpy as np

from ionbound.errors import DomainError

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


def sphere_average_inverse_distance(a, s: float) -> float:
    """Average of 1/|a + s*w| over unit directions w: equals 1/max(|a|, s)."""
    r = math.hypot(*map(float, a))
    if s < 0:
        raise DomainError("radius must be non-negative")
    m = max(r, float(s))
    if m == 0.0:
        raise DomainError("|a| and s cannot both vanish")
    return 1.0 / m


def sphere_average_dipole(a, s: float) -> np.ndarray:
    """Average of w/|a + s*w| over unit directions w.

    Closed form -(1/3) (a/|a|) min(|a|, s) / max(|a|, s)^2; the center must
    be off the origin.
    """
    a = np.asarray(a, dtype=float)
    r = float(np.linalg.norm(a))
    if r == 0.0:
        raise DomainError("dipole average undefined for a center at the origin")
    if s <= 0:
        raise DomainError("radius must be positive")
    return -(a / r) * min(r, s) / (3.0 * max(r, s) ** 2)


def radial_kernel_triple(r: float, s: float) -> tuple[float, float, float]:
    """Sphere-sphere averages of the three pair kernels for shells of radii r, s.

    Returns (full, kernel1, kernel2) where full averages (|x|^2+|y|^2)/|x-y|,
    kernel1 averages max + min^2/|x-y|, and kernel2 averages
    |x-y| + (2/3) min^2/max, the mean shell distance being max + min^2/(3 max).
    All three are equal for every pair of shells.
    """
    if r <= 0 or s <= 0:
        raise DomainError("shell radii must be positive")
    big, small = (r, s) if r >= s else (s, r)
    full = (r * r + s * s) / big
    kernel1 = big + small * small / big
    kernel2 = (big + small * small / (3.0 * big)) + (2.0 / 3.0) * small * small / big
    return full, kernel1, kernel2


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


def reference_evaluate_trial(points: np.ndarray, origin_guard: float, coincidence_rtol: float):
    """The descent's guarded evaluator in numpy, as it was written before its
    numpy calls were cut, with the kernel helpers it called inlined, as the
    oracle for ``ionbound.alpha._evaluate_trial``: ratio, points rescaled by
    t = N / sum|x_i| and the gradient there, or None if a point lies within
    ``origin_guard`` of the origin at that scale or a pair is closer than
    ``coincidence_rtol`` times the diameter.  A NaN coordinate slips past
    these guards here."""
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    total = float(norms.sum())
    if total == 0.0 or float(norms.min()) * (points.shape[0] / total) < origin_guard:
        return None
    n = points.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    upper = d[np.triu_indices(n, 1)]
    if float(upper.min()) <= coincidence_rtol * float(upper.max()):
        return None
    np.fill_diagonal(d, np.inf)
    norms2 = np.einsum("ij,ij->i", points, points)
    norms = np.sqrt(norms2)
    s2 = norms2[:, None] + norms2[None, :]
    inv = 1.0 / d
    energy = 0.5 * float((s2 * inv).sum())
    normalizer = (n - 1) * float(norms.sum())
    ratio = energy / normalizer
    d_energy = 2.0 * points * inv.sum(axis=1)[:, None] - np.einsum(
        "ij,ijk->ik", s2 * inv**3, diff
    )
    d_norm = (n - 1) * points / norms[:, None]
    grad = (d_energy - ratio * d_norm) / normalizer
    scale = points.shape[0] / total
    return ratio, points * scale, grad / scale


def reference_lbfgs_direction(grad: np.ndarray, pairs: list, step_init: float):
    """The descent's L-BFGS two-loop recursion in numpy, as it was written
    before its numpy calls were cut, as the oracle for
    ``ionbound.alpha._lbfgs_direction``: -H grad over the (s, y, 1/sᵀy) pairs,
    oldest first, or -step_init * grad (and the pairs cleared) if that does
    not descend."""
    if pairs:
        q = grad.ravel().copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += (a - rho * (y @ q)) * s
        if q @ grad.ravel() > 0.0:
            return -q.reshape(grad.shape)
        pairs.clear()
    return -step_init * grad
