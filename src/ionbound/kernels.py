"""Pair kernels, spherical-average identities, and discrete inequality probes.

The central object is the energy-to-normalizer ratio of a labelled point
configuration: the pair kernel (|x|^2+|y|^2)/|x-y| summed over pairs, divided
by (N-1) times the total distance from the origin.  Everything here is a pure
function; the Monte Carlo helpers take an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    CoincidentPointsError,
    DegenerateNormalizerError,
    DomainError,
    NonRealizableGeometryError,
    OriginPointError,
    ZeroCenterError,
)

# Pairs closer than this fraction of the configuration diameter are rejected:
# the pair kernel diverges there and callers must see a hard error.
COINCIDENCE_RTOL = 1e-12

MC_DEFAULT_SAMPLES = 10**6


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParticleConfiguration:
    """N labelled points in R^3, N >= 2, with no coincident pair.

    At most one point may sit at the origin; the pair kernel stays finite
    there but the radial derivative does not.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DomainError(f"points must have shape (N, 3), got {pts.shape}")
        if pts.shape[0] < 2:
            raise DomainError("a configuration needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise DomainError("all coordinates must be finite")
        dmin, dmax = _distance_extremes(pts)
        if dmin <= COINCIDENCE_RTOL * dmax:
            raise CoincidentPointsError(
                f"minimum pair distance {dmin:g} below coincidence threshold"
            )
        if int(np.sum(_norms(pts) == 0.0)) > 1:
            raise CoincidentPointsError("more than one point at the origin")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def scaled(self, t: float) -> "ParticleConfiguration":
        if t <= 0:
            raise DomainError("scale factor must be positive")
        return ParticleConfiguration(self.points * t)


@dataclass(frozen=True)
class RatioValue:
    """Energy sum, normalizer (N-1)*sum|x_i|, and their quotient."""

    energy: float
    normalizer: float
    ratio: float


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of a discrete inequality probe at one configuration.

    ``margin`` is the exact left-minus-right of the probed inequality; it may
    legitimately be negative at small N.
    """

    inequality: str
    n: int
    epsilon: float
    margin: float
    witness: ParticleConfiguration = field(repr=False)


# ---------------------------------------------------------------------------
# raw array helpers (shared with the optimizers; no validation)
# ---------------------------------------------------------------------------

def _norms(points: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", points, points))


@lru_cache(maxsize=64)
def _triu(n: int):
    return np.triu_indices(n, 1)


def _pair_geometry(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair differences x_i - x_j, shape (N, N, 3), and distances |x_i - x_j|."""
    diff = points[:, None, :] - points[None, :, :]
    return diff, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _pair_distance_matrix(points: np.ndarray) -> np.ndarray:
    return _pair_geometry(points)[1]


def _distance_extremes(points: np.ndarray) -> tuple[float, float]:
    d = _pair_distance_matrix(points)[_triu(points.shape[0])]
    return float(d.min()), float(d.max())


def _energy_normalizer(points: np.ndarray) -> tuple[float, float]:
    # fsum reductions are exactly rounded, making the result independent of
    # the point labelling (bit-exact permutation invariance)
    n = points.shape[0]
    iu = _triu(n)
    d = _pair_distance_matrix(points)[iu]
    norms2 = np.einsum("ij,ij->i", points, points)
    energy = math.fsum((norms2[:, None] + norms2[None, :])[iu] / d)
    normalizer = (n - 1) * math.fsum(np.sqrt(norms2))
    return energy, normalizer


def _ratio_and_gradient(points: np.ndarray, geometry=None) -> tuple[float, np.ndarray]:
    """Ratio and its gradient with respect to every coordinate.

    The ratio is homogeneous of degree zero, so the gradient has zero
    directional derivative along the scaling direction x -> x.  A caller that
    already holds ``_pair_geometry(points)`` passes it as ``geometry``; the
    diagonal of its distance matrix is overwritten.
    """
    n = points.shape[0]
    diff, d = _pair_geometry(points) if geometry is None else geometry
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
    return ratio, grad


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def pair_energy(x, y) -> float:
    """(|x|^2 + |y|^2) / |x - y| for two distinct points of R^3.

    Symmetric in its arguments and linear under joint scaling.  Raises
    CoincidentPointsError when the separation falls below the coincidence
    threshold relative to the pair's own scale.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = float(np.linalg.norm(x - y))
    scale = max(float(np.linalg.norm(x)), float(np.linalg.norm(y)))
    if d <= COINCIDENCE_RTOL * scale or d == 0.0:
        raise CoincidentPointsError(f"|x - y| = {d:g} is below the coincidence threshold")
    return float((x @ x + y @ y) / d)


def ratio_value(config: ParticleConfiguration) -> RatioValue:
    """Evaluate the pair-energy sum, the normalizer, and their ratio.

    Invariant under scaling, rotation, and relabelling of the points.
    """
    energy, normalizer = _energy_normalizer(config.points)
    if normalizer == 0.0:
        raise DegenerateNormalizerError("all points at the origin")
    return RatioValue(energy=energy, normalizer=normalizer, ratio=energy / normalizer)


def ratio_gradient(config: ParticleConfiguration) -> np.ndarray:
    """Gradient of the configuration ratio, one row per point.

    Requires every point off the origin; agrees with central finite
    differences to better than 1e-5 relative on generic configurations.
    """
    if np.any(_norms(config.points) == 0.0):
        raise OriginPointError("gradient undefined with a point at the origin")
    _, grad = _ratio_and_gradient(config.points)
    return grad


def sphere_average_inverse_distance(a, s: float) -> float:
    """Average of 1/|a + s*w| over unit directions w: equals 1/max(|a|, s)."""
    r = float(np.linalg.norm(np.asarray(a, dtype=float)))
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
        raise ZeroCenterError("dipole average undefined for a center at the origin")
    if s <= 0:
        raise DomainError("radius must be positive")
    return -(a / r) * min(r, s) / (3.0 * max(r, s) ** 2)


def w_lambda_reduced(
    lam: float, a: float, b: float, c: float, check_triangle: bool = True
) -> float:
    """Blended two-kernel surrogate lambda*(a + b^2/c) + (1-lambda)*(c + (2/3) b^2/a).

    Here a >= b >= 0 are the two radii and c the separation.  With
    ``check_triangle`` the separation must be realizable, |a-b| <= c <= a+b
    (only enforced for b > 0); disable it for kernel-only evaluation.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError("lambda must lie in [0, 1]")
    if a <= 0 or c <= 0 or not 0.0 <= b <= a:
        raise DomainError("need a > 0, 0 <= b <= a, c > 0")
    if check_triangle and b > 0 and not (a - b <= c <= a + b):
        raise NonRealizableGeometryError(
            f"c = {c:g} outside the realizable range [{a - b:g}, {a + b:g}]"
        )
    return lam * (a + b * b / c) + (1.0 - lam) * (c + (2.0 / 3.0) * b * b / a)


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


def inequality_probe(
    inequality: str, config: ParticleConfiguration, epsilon: float
) -> ProbeReport:
    """Evaluate one of the discrete inequalities at a configuration.

    ``lsst``: margin = max_j [ sum_{i != j} 1/|x_i - x_j| - N(1-eps)/|x_j| ].
    ``domination``: margin = sum_{i<j} of the pair kernel minus (1-eps) times
    the max-plus-min-squared surrogate.  Negative margins are legitimate at
    small N and are reported, not raised.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError("epsilon must lie in [0, 1]")
    pts = config.points
    n = config.n
    d = _pair_distance_matrix(pts)
    norms = _norms(pts)
    if inequality == "lsst":
        if np.any(norms == 0.0):
            raise OriginPointError("the lsst probe needs every point off the origin")
        np.fill_diagonal(d, np.inf)
        margin = float(np.max((1.0 / d).sum(axis=1) - n * (1.0 - epsilon) / norms))
    elif inequality == "domination":
        iu = _triu(n)
        dij = d[iu]
        big = np.maximum.outer(norms, norms)[iu]
        small = np.minimum.outer(norms, norms)[iu]
        norms2 = norms**2
        lhs = (norms2[:, None] + norms2[None, :])[iu] / dij
        rhs = big + small**2 / dij
        margin = float((lhs - (1.0 - epsilon) * rhs).sum())
    else:
        raise DomainError(f"unknown inequality id {inequality!r}")
    return ProbeReport(
        inequality=inequality, n=n, epsilon=float(epsilon), margin=margin, witness=config
    )


# ---------------------------------------------------------------------------
# Monte Carlo oracles
# ---------------------------------------------------------------------------

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
