"""Multi-start estimation of the N-point ratio infimum and its two-sided bounds.

The best ratio found over seeded restarts is an upper estimate of the true
infimum; the matching lower bound comes from the statistical-limit constant
through an explicit N-dependent correction.  Results are deterministic given
(N, settings), and the same on every IEEE CPU: the starts come from Python's
``random.Random``, whose ``random()`` stream is fixed across Python versions,
and the descent runs on flat lists of Python floats with only correctly
rounded operations (+, -, *, /, ``math.sqrt`` and ``math.fsum``), so it uses
no numpy, no libm function and no builtin ``sum()`` of floats.
"""

from __future__ import annotations

import math
import random
from collections import deque
from operator import mul
from typing import NamedTuple, Optional

from . import DEFAULT_BETA_LOWER, _beta1
from .errors import Checked, DomainError
from .kernels import (COINCIDENCE_RTOL, ParticleConfiguration, RatioValue, _evaluate, _flat,
                      _triples, ratio_value)

# Steps moving any point this close to the origin are rejected (the radial
# term is not smooth there); configurations are kept at scale sum|x_i| = N.
ORIGIN_GUARD = 1e-9
# largest N. An evaluation loops over the N(N-1)/2 pairs in Python, so one
# restart takes about 20 s at N = 256 and 6 min at N = 1000 (README,
# "Reproducibility"); N < 2^10 also fits the bit field of a start's seed
MAX_POINT_COUNT = 256
# most restarts per N; every restart index fits the 20-bit field of a start's seed
MAX_RESTARTS = 10**6

_MAX_ITERATIONS = 5000  # descent steps per restart
_STEP_FLOOR = 1e-15
_VALUE_TIE = 1e-15
_BASIN_TIE = 1e-9  # restarts this close to the best value hit its basin
_MEMORY = 8  # curvature pairs kept by the L-BFGS two-loop recursion
_STEP_INIT = 0.1  # scale of the gradient step taken without curvature pairs
_STEP_SHRINK = 0.5  # backtracking factor
_INIT_RADIUS = (0.2, 1.6)  # start radii are 0.2 + 1.6 u, u uniform in [0, 1)


class _OptimizerFields(NamedTuple):
    restarts: int = 64
    ratio_tolerance: float = 1e-10
    seed: int = 0


class OptimizerSettings(Checked, _OptimizerFields):
    """Restarts, seed and stopping rule of the multi-start L-BFGS descent; a
    restart takes 10-100 steps for N <= 12."""

    __slots__ = ()

    def _check(self):
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise DomainError(f"restarts must lie in [1, {MAX_RESTARTS}]")
        if not self.ratio_tolerance > 0:  # also rejects NaN
            raise DomainError("ratio_tolerance must be positive")
        if self.seed < 0:  # random.Random seeds from |x|: a negative seed would share starts
            raise DomainError("seed must be non-negative")


class AlphaEstimate(NamedTuple):
    """Best ratio found for one N, with the matching closed-form lower bound."""

    n: int
    value: float
    lower_bound: float
    best_points: tuple  # the best configuration, one (x, y, z) tuple per point
    restarts_used: int
    converged_restarts: int
    # iterations_total, iterations_max, evaluations_total, cap_hits, basin_hits
    diagnostics: dict

    @property
    def best_config(self) -> ParticleConfiguration:
        return ParticleConfiguration(self.best_points)


class LocalMinimizeResult(NamedTuple):
    config: ParticleConfiguration
    value: RatioValue
    converged: bool
    iterations: int


def _evaluate_trial(points: list):
    """Ratio, points rescaled by t = N / sum|x_i| and the gradient there (the
    trial's over t: the ratio is 0-homogeneous), all flat; None if a coordinate
    is not finite, a point lies within ORIGIN_GUARD of the origin at that scale
    or a pair is closer than COINCIDENCE_RTOL times the diameter."""
    parts = _evaluate(points)
    if parts is None:
        return None
    _, total, dmin, dmax, norms, ratio, grad = parts
    n = len(norms)
    if (not 0.0 < total < math.inf or min(norms) * (n / total) < ORIGIN_GUARD
            or dmin <= COINCIDENCE_RTOL * dmax):
        return None
    scale = n / total
    return ratio, [x * scale for x in points], grad


def _lbfgs_direction(grad: list, pairs: deque) -> list:
    """-H grad by the two-loop recursion over the (s, y, 1/sᵀy, sᵀy/yᵀy) pairs,
    oldest first; with no pairs, or if that does not descend, the pairs are
    cleared and -_STEP_INIT * grad is returned.  Each dot product is an
    exactly rounded fsum."""
    fsum = math.fsum
    if pairs:
        q = grad
        alphas = []
        for s, y, rho, _ in reversed(pairs):
            a = rho * fsum(map(mul, s, q))
            alphas.append(a)
            q = [qi - a * yi for qi, yi in zip(q, y)]
        gamma = pairs[-1][3]
        q = [gamma * qi for qi in q]
        for (s, y, rho, _), a in zip(pairs, reversed(alphas)):
            b = a - rho * fsum(map(mul, y, q))
            q = [qi + b * si for qi, si in zip(q, s)]
        if fsum(map(mul, q, grad)) > 0.0:
            return [-qi for qi in q]
        pairs.clear()
    return [-_STEP_INIT * g for g in grad]


def _minimize_raw(
    points: list, settings: OptimizerSettings, history: Optional[list] = None
) -> tuple[list, float, bool, int, int]:
    """L-BFGS descent on the normalized scale manifold sum|x_i| = N, from flat
    coordinates with no coincident pair and no point at the origin.

    Backtracking by _STEP_SHRINK from the full step accepts the first trial
    that passes the guards with a strictly lower ratio, and gives up at the
    step floor or once the step no longer moves the points.  Each accepted step
    gives a curvature pair, built after renormalization and kept, up to the
    last _MEMORY, if sᵀy > 1e-12 |s||y|.  Stops at the iteration cap, or when
    a step along -_STEP_INIT * gradient improves by less than ratio_tolerance
    or finds no improving step above the step floor; a quasi-Newton step that
    meets either test clears the memory instead.  Returns the flat points, the
    ratio, the convergence flag, and the counts of iterations and trial
    evaluations.
    """
    trace = history if history is not None else []
    _, total, _, _, norms, ratio, grad = _evaluate(points)
    scale = len(norms) / total
    pts = [x * scale for x in points]
    trace.append(ratio)
    pairs: deque = deque(maxlen=_MEMORY)
    fsum, tolerance = math.fsum, settings.ratio_tolerance
    converged, iterations, evaluations = False, 0, 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        direction = _lbfgs_direction(grad, pairs)
        step = 1.0
        while step > _STEP_FLOOR:
            evaluations += 1
            candidate = [x + step * d for x, d in zip(pts, direction)]
            trial = _evaluate_trial(candidate)
            if trial is not None and trial[0] < ratio:
                break
            # once the step rounds away, every shorter one gives pts and this same trial
            step = 0.0 if candidate == pts else step * _STEP_SHRINK
        else:
            trial = None
        if trial is None or ratio - trial[0] < tolerance:
            converged = not pairs
            pairs.clear()
        else:
            s = [a - b for a, b in zip(trial[1], pts)]
            y = [a - b for a, b in zip(trial[2], grad)]
            sy, yy = fsum(map(mul, s, y)), fsum(map(mul, y, y))
            if sy > 1e-12 * (math.sqrt(fsum(map(mul, s, s))) * math.sqrt(yy)):
                pairs.append((s, y, 1.0 / sy, sy / yy))
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
    if any(x * x + y * y + z * z == 0.0 for x, y, z in start.points):
        raise DomainError("local_minimize needs every start point off the origin")
    pts, ratio, converged, iterations, _ = _minimize_raw(_flat(start.points), settings, history)
    config = ParticleConfiguration(_triples(pts))
    return LocalMinimizeResult(
        config=config,
        value=ratio_value(config),
        converged=converged,
        iterations=iterations,
    )


def _initial_points(n: int, settings: OptimizerSettings, restart: int) -> list:
    """Seeded start, flat: i.i.d. uniform directions, by rejection from the
    cube, at radii 0.2 + 1.6 u, redrawn until it passes the trial guards and
    rescaled as a trial is.  The generator is seeded with
    (seed << 30) | (n << 20) | restart: n < 2^10 and restart < 2^20."""
    draw = random.Random((settings.seed << 30) | (n << 20) | restart).random
    low, width = _INIT_RADIUS
    while True:
        pts = []
        for _ in range(n):
            while True:
                x, y, z = 2.0 * draw() - 1.0, 2.0 * draw() - 1.0, 2.0 * draw() - 1.0
                r2 = x * x + y * y + z * z
                if 0.0 < r2 <= 1.0:
                    break
            k = (low + width * draw()) / math.sqrt(r2)
            pts += (x * k, y * k, z * k)
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
    runs = [_minimize_raw(_initial_points(n, settings, k), settings)
            for k in range(settings.restarts)]
    values = [run[1] for run in runs]
    iterations = [run[3] for run in runs]
    low = min(values)
    best = next(run for run in runs if run[1] <= low + _VALUE_TIE)
    converged = sum(run[2] for run in runs)
    return AlphaEstimate(
        n=n,
        value=best[1],
        lower_bound=alpha_sandwich(n, DEFAULT_BETA_LOWER),
        best_points=_triples(best[0]),
        restarts_used=settings.restarts,
        converged_restarts=converged,
        diagnostics={
            "iterations_total": sum(iterations),
            "iterations_max": max(iterations),
            "evaluations_total": sum(run[4] for run in runs),
            "cap_hits": settings.restarts - converged,
            "basin_hits": sum(v <= low + _BASIN_TIE for v in values),
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
    return n / (n - 1) * (beta_lower - _beta1(beta_lower) * n ** (-2.0 / 3.0))
