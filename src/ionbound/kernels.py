"""Pair kernels, the configuration ratio, and spherical-average identities.

The central object is the energy-to-normalizer ratio of a labelled point
configuration: the pair kernel (|x|^2+|y|^2)/|x-y| summed over pairs, divided
by (N-1) times the total distance from the origin.  Everything here is a pure
function.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# Pairs closer than this fraction of the configuration diameter are rejected:
# the pair kernel diverges there and callers must see a hard error.
COINCIDENCE_RTOL = 1e-12


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class _Points(NamedTuple):
    points: np.ndarray


class ParticleConfiguration(_Points):
    """N labelled points in R^3, N >= 2, with no coincident pair.

    At most one point may sit at the origin; the pair kernel stays finite
    there but the radial derivative does not.  An immutable named tuple whose
    points are checked, and made a read-only float array, whenever one is built.
    """

    __slots__ = ()

    def __new__(cls, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DomainError(f"points must have shape (N, 3), got {pts.shape}")
        if pts.shape[0] < 2:
            raise DomainError("a configuration needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise DomainError("all coordinates must be finite")
        dmin, dmax = _distance_extremes(pts)
        if dmin <= COINCIDENCE_RTOL * dmax:
            raise DomainError(
                f"minimum pair distance {dmin:g} below coincidence threshold"
            )
        if int(np.sum(_norms(pts) == 0.0)) > 1:
            raise DomainError("more than one point at the origin")
        pts.setflags(write=False)
        return super().__new__(cls, pts)

    @classmethod
    def _make(cls, iterable):  # what _replace builds through
        return cls(*iterable)


class RatioValue(NamedTuple):
    """Energy sum, normalizer (N-1)*sum|x_i|, and their quotient."""

    energy: float
    normalizer: float
    ratio: float


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


def _distance_extremes(points: np.ndarray) -> tuple[float, float]:
    d = _pair_geometry(points)[1][_triu(points.shape[0])]
    return float(d.min()), float(d.max())


def _energy_normalizer(points: np.ndarray) -> tuple[float, float]:
    # fsum reductions are exactly rounded, making the result independent of
    # the point labelling (bit-exact permutation invariance)
    n = points.shape[0]
    iu = _triu(n)
    d = _pair_geometry(points)[1][iu]
    norms2 = np.einsum("ij,ij->i", points, points)
    energy = math.fsum((norms2[:, None] + norms2[None, :])[iu] / d)
    normalizer = (n - 1) * math.fsum(np.sqrt(norms2))
    return energy, normalizer


def _ratio_and_gradient(points: np.ndarray) -> tuple[float, np.ndarray]:
    """Ratio and its gradient with respect to every coordinate.

    The ratio is homogeneous of degree zero, so the gradient has zero
    directional derivative along the scaling direction x -> x.
    """
    diff, d = _pair_geometry(points)
    np.fill_diagonal(d, np.inf)
    norms2 = np.einsum("ij,ij->i", points, points)
    norms = np.sqrt(norms2)
    return _ratio_gradient_from(points, diff, d, norms2, norms, float(norms.sum()))


def _ratio_gradient_from(points, diff, d, norms2, norms, total) -> tuple[float, np.ndarray]:
    """``_ratio_and_gradient`` from the parts a guarded caller already holds:
    ``_pair_geometry(points)`` with inf on the distance diagonal, the squared
    norms, the norms and their sum."""
    n = points.shape[0]
    s2 = norms2[:, None] + norms2
    inv = 1.0 / d
    energy = 0.5 * float((s2 * inv).sum())
    normalizer = (n - 1) * total
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

def ratio_value(config: ParticleConfiguration) -> RatioValue:
    """Evaluate the pair-energy sum, the normalizer, and their ratio.

    Invariant under scaling, rotation, and relabelling of the points.
    """
    energy, normalizer = _energy_normalizer(config.points)
    return RatioValue(energy=energy, normalizer=normalizer, ratio=energy / normalizer)


def ratio_gradient(config: ParticleConfiguration) -> np.ndarray:
    """Gradient of the configuration ratio, one row per point.

    Requires every point off the origin; agrees with central finite
    differences to better than 1e-5 relative on generic configurations.
    """
    if np.any(_norms(config.points) == 0.0):
        raise DomainError("gradient undefined with a point at the origin")
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
