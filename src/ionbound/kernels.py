"""Pair kernels, the configuration ratio, and spherical-average identities.

The central object is the energy-to-normalizer ratio of a labelled point
configuration: the pair kernel (|x|^2+|y|^2)/|x-y| summed over pairs, divided
by (N-1) times the total distance from the origin.  Everything here is a pure
function.

One evaluator, ``_evaluate``, computes the ratio, its gradient and the
configuration checks in Python floats, from a flat coordinate list, with only
correctly rounded operations (+, -, *, /, ``math.sqrt`` and ``math.fsum``) in
a fixed order, so its bits are the same on every IEEE CPU.  numpy is imported
only where an array is built or returned.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import Checked, DomainError

# Pairs closer than this fraction of the configuration diameter are rejected:
# the pair kernel diverges there and callers must see a hard error.
COINCIDENCE_RTOL = 1e-12


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class _Points(NamedTuple):
    points: "np.ndarray"


class ParticleConfiguration(Checked, _Points):
    """N labelled points in R^3, N >= 2, with no coincident pair and a finite
    pair-energy sum.

    At most one point may sit at the origin; the pair kernel stays finite
    there but the radial derivative does not.  The points are held as a
    read-only float array.
    """

    __slots__ = ()

    def __new__(cls, points):
        import numpy as np

        pts = np.array(points, dtype=float)  # a copy: the caller's array stays writable
        pts.setflags(write=False)
        return super().__new__(cls, pts)

    def _check(self):
        pts = self.points
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DomainError(f"points must have shape (N, 3), got {pts.shape}")
        if pts.shape[0] < 2:
            raise DomainError("a configuration needs at least two points")
        flat = pts.ravel().tolist()
        if not all(map(math.isfinite, flat)):
            raise DomainError("all coordinates must be finite")
        parts = _evaluate(flat)  # None if two points coincide
        energy, _, dmin, dmax, norms = (0.0, 0.0, 0.0, 0.0, []) if parts is None else parts[:5]
        if dmin <= COINCIDENCE_RTOL * dmax:
            raise DomainError(f"minimum pair distance {dmin:g} below coincidence threshold")
        if norms.count(0.0) > 1:
            raise DomainError("more than one point at the origin")
        if not energy < math.inf:  # so ratio_value's energy is finite on every configuration
            raise DomainError("the pair energy sum overflows the floats")


class RatioValue(NamedTuple):
    """Energy sum, normalizer (N-1)*sum|x_i|, and their quotient."""

    energy: float
    normalizer: float
    ratio: float


# ---------------------------------------------------------------------------
# the evaluator (shared with the optimizers; no validation)
# ---------------------------------------------------------------------------

def _evaluate(p: list) -> tuple | None:
    """The ratio's parts at the points with flat coordinates p = [x0, y0, z0, x1, ...].

    Returns (energy, total, dmin, dmax, norms, ratio, gradient): the energy
    sum and total = sum|x_i|, each exactly rounded by ``fsum`` (so both are
    independent of the labelling; a sum past the largest float is inf); the
    smallest and largest pair distance; the norms; and, when no point sits
    at the origin, the ratio energy / ((N-1) total) and its gradient at the
    points rescaled to sum|x_i| = N, flat (else None for both).  Returns None
    if two points coincide.

    The ratio is homogeneous of degree zero, so the gradient at p is the one
    returned times N / total, and it has zero directional derivative along the
    scaling direction x -> x.  With s_i = |x_i|^2 and d_ij = |x_i - x_j|, the
    energy's gradient at x_i is 2 x_i sum_j 1/d_ij - sum_j (s_i + s_j)(x_i - x_j)/d_ij^3.
    """
    n = len(p) // 3
    xs, ys, zs = p[0::3], p[1::3], p[2::3]
    s = [x * x + y * y + z * z for x, y, z in zip(xs, ys, zs)]
    norms = list(map(math.sqrt, s))
    # per point: sum_j 1/d_ij, and sum_j (s_i + s_j)(x_i - x_j)/d_ij^3 by component
    inv_sums, bx, by, bz = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    energies, distances = [], []
    add_energy, add_distance, sqrt = energies.append, distances.append, math.sqrt
    try:
        for i in range(n - 1):
            xi, yi, zi, si = xs[i], ys[i], zs[i], s[i]
            ai = bxi = byi = bzi = 0.0
            for j in range(i + 1, n):
                dx, dy, dz = xi - xs[j], yi - ys[j], zi - zs[j]
                d2 = dx * dx + dy * dy + dz * dz
                d = sqrt(d2)
                add_distance(d)
                inv = 1.0 / d  # ZeroDivisionError: the pair coincides
                e = (si + s[j]) * inv
                add_energy(e)
                w = e / d2
                wx, wy, wz = w * dx, w * dy, w * dz
                ai += inv
                bxi += wx
                byi += wy
                bzi += wz
                inv_sums[j] += inv
                bx[j] -= wx
                by[j] -= wy
                bz[j] -= wz
            inv_sums[i] += ai
            bx[i] += bxi
            by[i] += byi
            bz[i] += bzi
    except ZeroDivisionError:
        return None
    try:
        energy = math.fsum(energies)
    except OverflowError:  # the terms are non-negative: the rounded sum is inf
        energy = math.inf
    total = math.fsum(norms)  # each norm is below 2^512, or inf
    dmin, dmax = min(distances), max(distances)
    if not min(norms) > 0.0:
        return energy, total, dmin, dmax, norms, None, None
    ratio = energy / ((n - 1) * total)
    # (energy gradient - ratio * normalizer gradient) / normalizer, at sum|x_i| = N
    c, denominator = ratio * (n - 1), float(n * (n - 1))
    grad = []
    for x, y, z, r, a, gx, gy, gz in zip(xs, ys, zs, norms, inv_sums, bx, by, bz):
        k = 2.0 * a - c / r
        grad += ((k * x - gx) / denominator, (k * y - gy) / denominator,
                 (k * z - gz) / denominator)
    return energy, total, dmin, dmax, norms, ratio, grad


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def ratio_value(config: ParticleConfiguration) -> RatioValue:
    """Evaluate the pair-energy sum, the normalizer, and their ratio.

    Invariant under scaling, rotation, and relabelling of the points; the
    energy sum and the normalizer are exactly rounded sums, so relabelling
    leaves every bit of them unchanged.
    """
    energy, total = _evaluate(config.points.ravel().tolist())[:2]
    normalizer = (config.points.shape[0] - 1) * total
    return RatioValue(energy=energy, normalizer=normalizer, ratio=energy / normalizer)


def ratio_gradient(config: ParticleConfiguration) -> np.ndarray:
    """Gradient of the configuration ratio, one row per point.

    Requires every point off the origin; agrees with central finite
    differences to better than 1e-5 relative on generic configurations.
    """
    import numpy as np

    n = config.points.shape[0]
    _, total, _, _, _, _, grad = _evaluate(config.points.ravel().tolist())
    if grad is None:
        raise DomainError("gradient undefined with a point at the origin")
    return np.array(grad).reshape(n, 3) * (n / total)


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
    import numpy as np

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
