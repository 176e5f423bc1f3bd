"""Multi-start estimation of the N-point ratio infimum and its two-sided bounds.

The best ratio found over seeded restarts is an upper estimate of the true
infimum; the matching lower bound comes from the statistical-limit constant
through an explicit N-dependent correction.  Results are deterministic given
(N, settings).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import DEFAULT_BETA_LOWER
from .errors import DomainError
from .kernels import (
    COINCIDENCE_RTOL,
    ParticleConfiguration,
    RatioValue,
    _norms,
    _pair_geometry,
    _ratio_and_gradient,
    _triu,
    ratio_value,
)

# Steps moving any point this close to the origin are rejected (the radial
# term is not smooth there); configurations are kept at scale sum|x_i| = N.
ORIGIN_GUARD = 1e-9
# largest N; a descent step holds (N, N, 3) pair differences, 24 MB at this N
MAX_POINT_COUNT = 1000
# most restarts per N; estimate_alpha allocates its per-restart arrays up front
MAX_RESTARTS = 10**6

_MAX_ITERATIONS = 5000  # descent steps per restart
_STEP_FLOOR = 1e-15
_VALUE_TIE = 1e-15
_BASIN_TIE = 1e-9  # restarts this close to the best value hit its basin
_MEMORY = 8  # curvature pairs kept by the L-BFGS two-loop recursion
_STEP_INIT = 0.1  # scale of the gradient step taken without curvature pairs
_STEP_SHRINK = 0.5  # backtracking factor
_INIT_RADIAL_BAND = (0.2, 1.8)  # start radii are uniform in this band


@dataclass(frozen=True)
class OptimizerSettings:
    """Restarts, seed and stopping rule of the multi-start L-BFGS descent; a
    restart takes 10-100 steps for N <= 12."""

    restarts: int = 64
    ratio_tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise DomainError(f"restarts must lie in [1, {MAX_RESTARTS}]")
        if self.ratio_tolerance <= 0:
            raise DomainError("ratio_tolerance must be positive")


@dataclass(frozen=True)
class AlphaEstimate:
    """Best ratio found for one N, with the matching closed-form lower bound."""

    n: int
    value: float
    lower_bound: float
    best_config: ParticleConfiguration = field(repr=False)
    restarts_used: int
    converged_restarts: int
    # iterations_total, iterations_max, evaluations_total, cap_hits, basin_hits
    diagnostics: dict


class LocalMinimizeResult(NamedTuple):
    config: ParticleConfiguration
    value: RatioValue
    converged: bool
    iterations: int


def _normalized(points: np.ndarray) -> np.ndarray:
    return points * (points.shape[0] / float(_norms(points).sum()))


def _evaluate_trial(points: np.ndarray):
    """Ratio, points rescaled by t = N / sum|x_i| and the gradient there (the
    trial's over t: the ratio is 0-homogeneous), from one pair-distance matrix;
    None if a point lies within ORIGIN_GUARD of the origin at that scale or a
    pair is closer than COINCIDENCE_RTOL times the diameter."""
    norms = _norms(points)
    total = float(norms.sum())
    if total == 0.0 or float(norms.min()) * (points.shape[0] / total) < ORIGIN_GUARD:
        return None
    geometry = _pair_geometry(points)
    d = geometry[1][_triu(points.shape[0])]
    if float(d.min()) <= COINCIDENCE_RTOL * float(d.max()):
        return None
    ratio, grad = _ratio_and_gradient(points, geometry)
    scale = points.shape[0] / total
    return ratio, points * scale, grad / scale


def _lbfgs_direction(grad: np.ndarray, pairs: deque) -> np.ndarray:
    """-H grad by the two-loop recursion over the (s, y, 1/sᵀy) pairs, oldest first;
    with no pairs, or if that does not descend, the pairs are cleared and
    -_STEP_INIT * grad is returned."""
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
    return -_STEP_INIT * grad


def _minimize_raw(
    points: np.ndarray, settings: OptimizerSettings, history: Optional[list] = None
) -> tuple[np.ndarray, float, bool, int, int]:
    """L-BFGS descent on the normalized scale manifold sum|x_i| = N.

    Backtracking by _STEP_SHRINK from the full step accepts the first trial
    that passes the guards with a strictly lower ratio, and gives up at the
    step floor or once the step no longer moves the points.  Each accepted step
    gives a curvature pair, built after renormalization and kept, up to the
    last _MEMORY, if sᵀy > 1e-12 |s||y|.  Stops at the iteration cap, or when
    a step along -_STEP_INIT * gradient improves by less than ratio_tolerance
    or finds no improving step above the step floor; a quasi-Newton step that
    meets either test clears the memory instead.  Returns the points, the
    ratio, the convergence flag, and the counts of iterations and trial
    evaluations.
    """
    trace = history if history is not None else []
    pts = _normalized(np.array(points, dtype=float))
    ratio, grad = _ratio_and_gradient(pts)
    trace.append(ratio)
    pairs: deque = deque(maxlen=_MEMORY)
    converged, iterations, evaluations = False, 0, 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        direction = _lbfgs_direction(grad, pairs)
        step = 1.0
        while step > _STEP_FLOOR:
            evaluations += 1
            candidate = pts + step * direction
            trial = _evaluate_trial(candidate)
            if trial is not None and trial[0] < ratio:
                break
            # once the step rounds away, every shorter one gives pts and this same trial
            step = 0.0 if np.array_equal(candidate, pts) else step * _STEP_SHRINK
        else:
            trial = None
        if trial is None or ratio - trial[0] < settings.ratio_tolerance:
            converged = not pairs
            pairs.clear()
        else:
            s, y = (trial[1] - pts).ravel(), (trial[2] - grad).ravel()
            if (sy := float(s @ y)) > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y)):
                pairs.append((s, y, 1.0 / sy))
        if trial is not None:
            ratio, pts, grad = trial
            trace.append(ratio)
        if converged:
            break
    return pts, ratio, converged, iterations, evaluations


def local_minimize(
    start: ParticleConfiguration,
    settings: OptimizerSettings,
    history: Optional[list] = None,
) -> LocalMinimizeResult:
    """Descend from ``start``; the returned ratio never exceeds the start ratio.

    Non-convergence within the iteration cap is flagged, not raised.  The
    optional ``history`` list collects the (non-increasing) ratio trace.
    """
    if np.any(_norms(start.points) == 0.0):
        raise DomainError("local_minimize needs every start point off the origin")
    pts, ratio, converged, iterations, _ = _minimize_raw(start.points, settings, history)
    config = ParticleConfiguration(pts)
    return LocalMinimizeResult(
        config=config,
        value=ratio_value(config),
        converged=converged,
        iterations=iterations,
    )


def _initial_points(n: int, settings: OptimizerSettings, restart: int) -> np.ndarray:
    """Seeded start: i.i.d. uniform directions, radii uniform in the init band."""
    seq = np.random.SeedSequence(entropy=settings.seed, spawn_key=(n, restart))
    rng = np.random.default_rng(seq)
    low, high = _INIT_RADIAL_BAND
    while True:
        dirs = rng.standard_normal((n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * rng.uniform(low, high, size=n)[:, None]
        if (trial := _evaluate_trial(pts)) is not None:
            return trial[1]


def estimate_alpha(n: int, settings: OptimizerSettings) -> AlphaEstimate:
    """Upper estimate of the N-point ratio infimum by multi-start descent.

    Deterministic given (n, settings): restart k is seeded from
    (settings.seed, n, k) and the reduction keeps the lowest restart index
    among values within 1e-15 of the minimum, so it is order-independent.
    """
    if not 2 <= n <= MAX_POINT_COUNT:
        raise DomainError(f"n must lie in [2, {MAX_POINT_COUNT}]")
    values = np.empty(settings.restarts)
    counts = np.empty((settings.restarts, 3), dtype=int)  # converged, iterations, evaluations
    configs: list[np.ndarray] = []
    for k in range(settings.restarts):
        pts, values[k], *counts[k] = _minimize_raw(_initial_points(n, settings, k), settings)
        configs.append(pts)
    best = int(np.nonzero(values <= values.min() + _VALUE_TIE)[0][0])
    return AlphaEstimate(
        n=n,
        value=float(values[best]),
        lower_bound=alpha_sandwich(n, DEFAULT_BETA_LOWER),
        best_config=ParticleConfiguration(configs[best]),
        restarts_used=settings.restarts,
        converged_restarts=int(counts[:, 0].sum()),
        diagnostics={
            "iterations_total": int(counts[:, 1].sum()),
            "iterations_max": int(counts[:, 1].max()),
            "evaluations_total": int(counts[:, 2].sum()),
            "cap_hits": int(np.sum(counts[:, 0] == 0)),
            "basin_hits": int(np.sum(values <= values.min() + _BASIN_TIE)),
        },
    )


def alpha_sandwich(n: int, beta_lower: float) -> float:
    """Closed-form lower bound for the N-point ratio from a statistical-limit bracket.

    It is the r-parametrized family of shell bounds at its maximizing shell
    radius r* = (4 beta N / 3)^(-1/3).
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    if not 0.0 < beta_lower < 1.0:
        raise DomainError("beta_lower must lie in (0, 1)")
    scale = n / (n - 1)
    return scale * (beta_lower - 3.0 * (beta_lower / 6.0) ** (1.0 / 3.0) * n ** (-2.0 / 3.0))
