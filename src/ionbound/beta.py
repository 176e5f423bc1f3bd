"""Two-sided bracketing of the statistical-limit ratio constant.

The lower side is the maximum g_max of the scalar reduction g(lambda) of the
blended-kernel maximin problem on [0.8, 1]; the kernel's exact inner minimum
at the maximizing lambda, a one-dimensional quasiconvex search, is reported
beside it as a cross-check.  The upper side comes from a closed-form trial
measure and from fractional quadratic programming over discretized radial
measures (Dinkelbach iteration whose parametric subproblems are solved
exactly by an active-set method on the weight simplex).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from . import DEFAULT_BETA_LOWER  # re-exported: the bounds default, kept beside __version__
from .errors import Checked, DomainError, IonboundError, IterationLimitError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

LAMBDA_DOMAIN = (0.8, 1.0)

# Analytic value of the radial trial measure (3/4) r^(-3/2) on [1, 9].
TRIAL_MEASURE_ANALYTIC = 115.0 / 81.0 - math.log(3.0) / 2.0

DEFAULT_NODE_COUNT = 200
DEFAULT_NODE_RANGE = (0.05, 20.0)
# the radial kernel is count x count; 5000 nodes already take 200 MB
MAX_NODE_COUNT = 5000
# widest node range hi/lo; the ratio is dilation invariant, so only hi/lo matters
MAX_NODE_SPAN = 1e100
_DINKELBACH_TOLERANCE = 1e-10
_OUTER_ITERATIONS = 500


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class _MeasureFields(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray


class RadialMeasure(Checked, _MeasureFields):
    """Discrete probability measure on (0, inf): increasing nodes, weights
    summing to 1, each held as a read-only float array."""

    __slots__ = ()

    def __new__(cls, nodes, weights):
        # copies: the caller's arrays stay writable
        nodes = np.array(nodes, dtype=float)
        weights = np.array(weights, dtype=float)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return super().__new__(cls, nodes, weights)

    def _check(self):
        nodes, weights = self
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise DomainError("nodes and weights must be matching non-empty 1-d arrays")
        if nodes[0] <= 0 or np.any(np.diff(nodes) <= 0):
            raise DomainError("nodes must be strictly increasing and positive")
        if np.any(weights < 0):
            raise DomainError("weights must be non-negative")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1 within 1e-12")


class LambdaPoint(NamedTuple):
    """One evaluation of the scalar reduction: lambda, its companion lambda', and g."""

    lam: float
    lambda_prime: float
    g: float


class _SettingsFields(NamedTuple):
    g_tolerance: float = 1e-10
    node_count: int = DEFAULT_NODE_COUNT
    node_range: tuple[float, float] = DEFAULT_NODE_RANGE


class BetaSettings(Checked, _SettingsFields):
    """Radial node grid and g tolerance of the bracket computation."""

    __slots__ = ()

    def _check(self):
        _check_node_grid(self.node_count, self.node_range)
        _check_tolerance(self.g_tolerance)


class WMaximinResult(NamedTuple):
    value: float
    gap: float
    b_at_min: float


# ---------------------------------------------------------------------------
# scalar reduction g(lambda) and its maximization
# ---------------------------------------------------------------------------

def g_of_lambda(lam: float) -> LambdaPoint:
    """Evaluate the closed-form companion lambda' and g = lambda - lambda'.

    Only defined on [0.8, 1], where the defining equation has the closed-form
    solution used here and its radicand rises from 2/15 at lambda = 0.8.
    """
    if not LAMBDA_DOMAIN[0] <= lam <= LAMBDA_DOMAIN[1]:
        raise DomainError("lambda must lie in [0.8, 1]")
    radicand = (lam + 2.0) / 3.0 - 2.0 * math.sqrt(lam * (1.0 - lam))
    lambda_prime = (math.sqrt(radicand) - math.sqrt((2.0 / 3.0) * (1.0 - lam))) ** 2
    return LambdaPoint(lam=lam, lambda_prime=lambda_prime, g=lam - lambda_prime)


def _golden_max(f, lo: float, hi: float, tolerance: float) -> float:
    """Golden section for the maximizer of a unimodal f on [lo, hi]: the midpoint of
    the final bracket, once it is ``tolerance`` wide or stops shrinking."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tolerance:
        width = hi - lo
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
        if hi - lo >= width:
            break  # float spacing reached; no tolerance below it can be met
    return 0.5 * (lo + hi)


def _check_tolerance(tolerance: float) -> None:
    if not tolerance > 0:  # also rejects NaN
        raise DomainError("tolerance must be positive")


def maximize_g(tolerance: float) -> tuple[float, float]:
    """Golden-section maximization of g over [0.8, 1] to the given bracket width."""
    _check_tolerance(tolerance)
    lam0 = _golden_max(lambda lam: g_of_lambda(lam).g, *LAMBDA_DOMAIN, tolerance)
    return lam0, g_of_lambda(lam0).g


# ---------------------------------------------------------------------------
# blended-kernel inner minimum on the reduced (a=1, b, c) domain
# ---------------------------------------------------------------------------

def w_lambda_reduced(lam: float, a: float, b: float, c: float) -> float:
    """Blended two-kernel surrogate lambda*(a + b^2/c) + (1-lambda)*(c + (2/3) b^2/a).

    Here a >= b >= 0 are the two radii and c the separation, which must be
    realizable, |a-b| <= c <= a+b (only enforced for b > 0).
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError("lambda must lie in [0, 1]")
    if a <= 0 or c <= 0 or not 0.0 <= b <= a:
        raise DomainError("need a > 0, 0 <= b <= a, c > 0")
    if b > 0 and not (a - b <= c <= a + b):
        raise DomainError(f"c = {c:g} outside the realizable range [{a - b:g}, {a + b:g}]")
    return lam * (a + b * b / c) + (1.0 - lam) * (c + (2.0 / 3.0) * b * b / a)


def _min_over_c(lam: float, b: float) -> float:
    """min over c in [max(1-b, 1e-9), 1+b] of W_lambda(1,b,c)/(1+b).

    The kernel is convex in c with stationary point b sqrt(lam/(1-lam)), so
    the minimizer is that point clamped to the interval (its top at lam = 1).
    """
    lo, hi = max(1.0 - b, 1e-9), 1.0 + b
    c = hi if lam == 1.0 else min(max(b * math.sqrt(lam / (1.0 - lam)), lo), hi)
    return w_lambda_reduced(lam, 1.0, b, c) / (1.0 + b)


def w_maximin(lam: float) -> WMaximinResult:
    """Exact inner minimum over b in [0, 1] of the normalized blended kernel at lambda.

    Scaling to a = 1 is exact (the normalized kernel is homogeneous of degree
    zero).  The numerator is jointly convex in (b, c) on a convex domain, so
    its minimum over c is convex in b and, over 1 + b > 0, quasiconvex:
    golden section in b, run to the float spacing, finds the global minimum.
    ``gap`` is the value less g(lambda).  At the maximizer of g it is the gap
    to g_max, 0 up to rounding, so the maximin over lambda is at least g_max.
    """
    g = g_of_lambda(lam).g  # also checks that lambda lies in [0.8, 1]
    b = _golden_max(lambda b: -_min_over_c(lam, b), 0.0, 1.0, 0.0)
    value = _min_over_c(lam, b)
    return WMaximinResult(value=value, gap=value - g, b_at_min=b)


# ---------------------------------------------------------------------------
# radial upper bound
# ---------------------------------------------------------------------------

def radial_ratio(measure: RadialMeasure) -> float:
    """Symmetrized quadratic form over the linear normalizer, dilation invariant."""
    w = measure.weights
    return float(w @ _radial_kernel(measure.nodes) @ w) / float(w @ measure.nodes)


def _radial_kernel(r: np.ndarray) -> np.ndarray:
    """Q_ij = (r_i^2 + r_j^2) / (2 max(r_i, r_j)), the quadratic form of the radial ratio."""
    return 0.5 * (r[:, None] ** 2 + r[None, :] ** 2) / np.maximum.outer(r, r)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (exact, sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u + (1.0 - css) / j > 0)[0][-1])
    tau = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + tau, 0.0)


def _check_node_grid(count: int, node_range: tuple[float, float]) -> None:
    lo, hi = node_range
    if not 1 <= count <= MAX_NODE_COUNT:
        raise DomainError(f"node count must lie in [1, {MAX_NODE_COUNT}], got {count}")
    # the radial kernel sums squared nodes: lo^2 must not underflow nor 2 hi^2 overflow
    if not (0 < lo < hi and lo * lo > 0 and math.isfinite(2.0 * hi * hi)):
        raise DomainError(f"node range {lo:g}:{hi:g} needs 0 < lo < hi, lo^2 > 0, 2 hi^2 finite")
    if hi / lo > MAX_NODE_SPAN:
        raise DomainError(f"node range {lo:g}:{hi:g} spans more than hi/lo = {MAX_NODE_SPAN:g}")


def default_nodes(
    count: int = DEFAULT_NODE_COUNT, node_range: tuple[float, float] = DEFAULT_NODE_RANGE
) -> np.ndarray:
    """Log-spaced node grid; only its dynamic range matters by dilation invariance."""
    _check_node_grid(count, node_range)
    lo, hi = node_range
    if count == 1:
        return np.array([math.sqrt(lo * hi)])
    return np.geomspace(lo, hi, count)


def trial_weights_on_nodes(nodes: np.ndarray) -> np.ndarray:
    """Discretization of the trial density onto a node grid (uniform fallback)."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.size == 1:
        return np.ones(1)
    cell = np.gradient(nodes)
    w = np.where((nodes >= 1.0) & (nodes <= 9.0), 0.75 * nodes ** (-1.5) * cell, 0.0)
    if w.sum() <= 0:
        w = np.ones_like(nodes)
    return w / w.sum()


def minimize_radial_ratio(
    nodes: Optional[np.ndarray] = None,
    settings: Optional[BetaSettings] = None,
    history: Optional[list] = None,
) -> tuple[RadialMeasure, float]:
    """Minimize the radial ratio over the weight simplex at fixed nodes.

    Dinkelbach iteration: each outer step solves min_v Q(v) - theta L(v)
    exactly from the current weights and lowers theta, the best ratio so far,
    to the ratio there; ``history`` gets the start ratio and theta after each
    step.  The subproblem is an active-set method: on the working set's face,
    the bordered solve steps to the stationary point if its curvature is
    positive (else the step is reversed, or, if singular, replaced by the
    projected gradient); weights that reach zero leave the set, and at a face
    minimizer the node with the most negative multiplier joins it, as in
    Lawson-Hanson NNLS.
    """
    if settings is None:
        settings = BetaSettings()
    if nodes is None:
        nodes = default_nodes(settings.node_count, settings.node_range)
    r = np.asarray(nodes, dtype=float)
    q = _radial_kernel(r)
    w = trial_weights_on_nodes(r)
    theta = float(w @ q @ w) / float(w @ r)
    history = [] if history is None else history
    history.append(theta)
    # the bordered system [2 Q_SS 1; 1ᵀ 0] and its right-hand side [-g; 0], filled in place
    bordered_buffer, rhs_buffer = np.empty((r.size + 1, r.size + 1)), np.empty(r.size + 1)
    for _ in range(_OUTER_ITERATIONS):
        v, free = w.copy(), w > 0
        for _ in range(4 * r.size + 10):
            idx = np.flatnonzero(free)
            g, q_ss = 2.0 * (q[idx] @ v) - theta * r[idx], q[np.ix_(idx, idx)]
            k = idx.size
            bordered, rhs = bordered_buffer[:k + 1, :k + 1], rhs_buffer[:k + 1]
            np.multiply(q_ss, 2.0, out=bordered[:k, :k])
            bordered[k, :k] = bordered[:k, k] = 1.0
            bordered[k, k] = 0.0
            np.negative(g, out=rhs[:k])
            rhs[k] = 0.0
            try:
                d = np.linalg.solve(bordered, rhs)[:-1]
            except np.linalg.LinAlgError:
                d = np.zeros(idx.size)
            curvature = float(d @ q_ss @ d)
            newton = curvature > 0
            if curvature < 0:
                d = -d
            elif not newton:
                d = g.mean() - g
                curvature = float(d @ q_ss @ d)
            t = 1.0 if newton else float(d @ d) / (2.0 * curvature) if curvature > 0 else math.inf
            shrinking = d < 0
            if shrinking.any():
                blocks = v[idx][shrinking] / -d[shrinking]
                v[idx] = np.maximum(v[idx] + min(t, blocks.min()) * d, 0.0)
                if blocks.min() < t:
                    v[idx[shrinking][np.argmin(blocks)]] = 0.0
                    free = v > 0
                    continue
                if not newton:
                    continue
            g = 2.0 * (q @ v) - theta * r
            multipliers = np.where(free, math.inf, g - g[idx].mean())
            j = int(np.argmin(multipliers))
            if not multipliers[j] < -1e-12 * r.max():  # a margin above rounding in the gradient
                break
            free[j] = True
        else:
            raise IterationLimitError("active-set cap reached", best=(RadialMeasure(r, w), theta))
        v /= v.sum()
        theta_new = float(v @ q @ v) / float(v @ r)
        done = theta - theta_new < _DINKELBACH_TOLERANCE
        if theta_new < theta:
            w, theta = v, theta_new
        history.append(theta)
        if done:
            return RadialMeasure(r, w), theta
    raise IterationLimitError("Dinkelbach iteration cap reached", best=(RadialMeasure(r, w), theta))


def kkt_residual(measure: RadialMeasure) -> float:
    """KKT defect of the ratio theta at the measure: with g = 2Qw - theta r, the larger of
    g's spread on the support and its largest drop off the support below its mean there,
    over the largest node (so dilation leaves it unchanged)."""
    r, w = measure.nodes, measure.weights
    q = _radial_kernel(r)
    g = 2.0 * (q @ w) - float(w @ q @ w) / float(w @ r) * r  # radial_ratio(measure), same kernel
    on = w > 0
    return float(max(np.ptp(g[on]), g[on].mean() - g[~on].min(initial=np.inf)) / r.max())


# ---------------------------------------------------------------------------
# the bracket
# ---------------------------------------------------------------------------

class BetaBracket(NamedTuple):
    """The bracket [lower, upper] on the limit constant and the estimates it was assembled
    from; ``lower`` is g_max, reached at ``lambda_0``."""

    lower: float
    upper: float
    upper_source: str
    certificate_measure: Optional[RadialMeasure]  # the radial minimizer, if it sets upper
    lambda_0: float
    maximin: WMaximinResult
    radial_minimum: float
    diagnostics: dict  # dinkelbach_steps, support_size, kkt_residual of the radial minimum


def bracket_detail(settings: Optional[BetaSettings] = None) -> BetaBracket:
    """The bracket: the lower side is g_max, the upper the smaller of the trial-measure
    value and the optimized radial measure, which then becomes the certificate."""
    if settings is None:
        settings = BetaSettings()
    lambda_0, g_max = maximize_g(settings.g_tolerance)
    maximin = w_maximin(lambda_0)
    history: list = []
    measure, optimized = minimize_radial_ratio(None, settings, history)
    if TRIAL_MEASURE_ANALYTIC <= optimized:
        upper, upper_source, certificate = TRIAL_MEASURE_ANALYTIC, "trial-measure", None
    else:
        upper, upper_source, certificate = optimized, "optimized-measure", measure
    if g_max > upper:
        raise IonboundError(f"lower {g_max:.7f} exceeds upper {upper:.7f}")
    return BetaBracket(
        lower=g_max, upper=upper, upper_source=upper_source, certificate_measure=certificate,
        lambda_0=lambda_0, maximin=maximin, radial_minimum=optimized,
        diagnostics={"dinkelbach_steps": len(history) - 1,
                     "support_size": int(np.count_nonzero(measure.weights)),
                     "kkt_residual": kkt_residual(measure)},
    )
