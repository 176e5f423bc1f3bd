"""Two-sided bracketing of the statistical-limit ratio constant.

The lower side is the maximum g_max of the scalar reduction g(lambda) of the
blended-kernel maximin problem on [0.8, 1]; the kernel's exact inner minimum
at the maximizing lambda, a one-dimensional quasiconvex search, is reported
beside it as a cross-check.  The upper side comes from a closed-form trial
measure and from fractional quadratic programming over discretized radial
measures (Dinkelbach iteration whose parametric subproblems are solved
exactly by an active-set method on the weight simplex, in O(n) memory since the
kernel is semiseparable), started from the continuum optimum, whose value is reported
beside it.  It runs on Python floats with +, -, *, /, ``math.sqrt`` and ``math.fsum``
alone (ln and cos are fixed-term series), so its bytes are the same on every IEEE CPU.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, repeat
from operator import lt, mul
from typing import Callable, NamedTuple, Optional, Sequence

from . import DEFAULT_BETA_LOWER  # re-exported: the bounds default, kept beside __version__
from .errors import Checked, DomainError, IonboundError, IterationLimitError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

LAMBDA_DOMAIN = (0.8, 1.0)

# Analytic value of the radial trial measure (3/4) r^(-3/2) on [1, 9].
TRIAL_MEASURE_ANALYTIC = 115.0 / 81.0 - 1.0986122886681098 / 2.0  # ln 3, correctly rounded

# The continuum optimum's support end R0 = exp(4 pi / (3 sqrt 3)), sqrt R0 and the frequency
# sqrt(3)/2 of its oscillation in ln r (see continuum_optimum), each correctly rounded.
_R0 = 11.227870809271732
_SQRT_R0 = 3.350801517439034
_OMEGA = 0.8660254037844386
# Taylor coefficients 1/(2n+1) of atanh(z)/z and (-1)^n/(2n)! of cos, each rounded once
_ATANH_TERMS = tuple(1 / (2 * n + 1) for n in range(10))
_COS_TERMS = tuple((-1 if n & 1 else 1) / math.factorial(2 * n) for n in range(10))

DEFAULT_NODE_COUNT = 200
DEFAULT_NODE_RANGE = (0.05, 20.0)
# a solve holds O(count) floats; its time is count times its active-set steps
MAX_NODE_COUNT = 5000
# widest node range hi/lo; only hi/lo matters, and it keeps the kernel on _unit's nodes finite
MAX_NODE_SPAN = 1e100
_DINKELBACH_TOLERANCE = 1e-10
_OUTER_ITERATIONS = 500


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class _MeasureFields(NamedTuple):
    nodes: tuple
    weights: tuple


def _check_nodes(r: tuple) -> None:  # the one node rule; NaN fails every comparison
    if not (r and 0 < r[0] and r[-1] / r[0] <= MAX_NODE_SPAN and all(map(lt, r, r[1:]))):
        raise DomainError(f"node grid must be positive, strictly increasing, hi/lo <= {MAX_NODE_SPAN:g}")


def _unit(r: tuple) -> tuple:
    """r times 2^-k, k the mean binary exponent of its ends: exact, since every kernel quantity
    is homogeneous in r.  r itself where k = 0, as at the defaults and on any scaled grid."""
    k = (math.frexp(r[0])[1] + math.frexp(r[-1])[1]) // 2
    return tuple(math.ldexp(x, -k) for x in r) if k else r


class RadialMeasure(Checked, _MeasureFields):
    """Discrete probability measure on (0, inf): increasing nodes, weights
    summing to 1, each held as a tuple of floats."""

    __slots__ = ()

    def __new__(cls, nodes, weights):  # copies of any sequence or 1-d array
        return super().__new__(cls, tuple(map(float, nodes)), tuple(map(float, weights)))

    def _check(self):
        nodes, weights = self
        if len(nodes) != len(weights) or not nodes:
            raise DomainError("nodes and weights must be matching non-empty 1-d arrays")
        _check_nodes(nodes)
        if not all(x >= 0 for x in weights):  # NaN fails both checks
            raise DomainError("weights must be non-negative")
        if not abs(math.fsum(weights) - 1.0) <= 1e-12:
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
        default_nodes(self.node_count, self.node_range)  # cached for the solve
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
    root = math.sqrt(radicand) - math.sqrt((2.0 / 3.0) * (1.0 - lam))
    lambda_prime = root * root  # not ** 2: libm's pow rounds per CPU
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
    r, w = _unit(measure.nodes), measure.weights
    return 0.5 * math.fsum(map(mul, w, _gradient(r, w))) / math.fsum(map(mul, w, r))


def _gradient(r: Sequence[float], x: Sequence[float], theta: float = 0.0) -> list:
    """2 Q x - theta r on increasing nodes in O(n): with Q_ij = (r_i^2 + r_j^2) / (2 max(r_i,
    r_j)), (Qx)_i = (r_i P_i + S_i / r_i + R_i + r_i^2 T_i) / 2, where P_i and S_i sum x_j and
    r_j^2 x_j over j < i, and R_i and T_i sum r_j x_j and x_j / r_j over j >= i.  A zero x_j
    adds exact zeros, so dropping the nodes where x is 0 leaves the other entries' bits."""
    tail, big_r, big_t = [], 0.0, 0.0
    for ri, xi in zip(reversed(r), reversed(x)):
        big_r += ri * xi
        big_t += xi / ri
        tail.append(big_r + ri * ri * big_t)
    product, big_p, big_s = [], 0.0, 0.0
    for ri, xi, rest in zip(r, x, reversed(tail)):
        product.append(ri * big_p + big_s / ri + rest - theta * ri)
        big_p += xi
        big_s += ri * ri * xi
    return product


def _face_solve(r: Sequence[float], g: Sequence[float]) -> Optional[list]:
    """The step d of the bordered system [2Q 1; 1ᵀ 0] [d; mu] = [-g; 0] on increasing
    nodes r in O(k), or None where a pivot is zero or not finite.  d = Z u, d_i =
    u_{i-1} - u_i with u_0 = u_k = 0, sums to zero, and ZᵀQZ u = -(g_{m+1} - g_m) / 2, where
    for the gap m from r_m to r_{m+1}, of width h_m, ZᵀQZ = diag(r_m h_m / r_{m+1} + a_m b_m)
    - T, T_mn = a_min(m,n) b_max(m,n), a_m = h_m (r_{m+1} + r_m), b_m = h_m / (2 r_m r_{m+1}).
    Elimination keeps that form, a_m raised by b_m sigma: one LDLᵀ sweep each way."""
    sigma, tau, sweep = 0.0, 0.0, []
    for r0, r1, g0, g1 in zip(r, r[1:], g, g[1:]):
        h = r1 - r0
        b = h / (2.0 * r0 * r1)
        alpha = h * (r1 + r0) + b * sigma
        pivot = r0 * h / r1 - b * b * sigma
        if not 0.0 < abs(pivot) < math.inf:
            return None
        c, y = alpha / pivot, -0.5 * (g1 - g0) + b * tau
        sigma, tau = sigma + alpha * c, tau + c * y
        sweep.append((b, c, y / pivot))
    u, rho = [0.0], 0.0
    for b, c, z in reversed(sweep):
        u.append(z + c * rho)
        rho += b * u[-1]
    u.reverse()  # u_1 .. u_{k-1}, then u_k = 0
    return [u0 - u1 for u0, u1 in zip([0.0, *u], u)]


def project_to_simplex(v):
    """Euclidean projection onto the probability simplex (exact, sort-based)."""
    import numpy as np  # here: only the bench and tests call it, and beta loads no numpy
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u + (1.0 - css) / j > 0)[0][-1])
    tau = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + tau, 0.0)


def _power(x: float, k: int) -> float:
    """x^k by repeated squaring; an overflow gives inf."""
    return 1.0 if k == 0 else _power(x * x, k >> 1) * (x if k & 1 else 1.0)


def default_nodes(
    count: int = DEFAULT_NODE_COUNT, node_range: tuple[float, float] = DEFAULT_NODE_RANGE
) -> tuple:
    """Log-spaced node grid; only its dynamic range matters by dilation invariance.

    The nodes are lo q^i by repeated multiplication, the last one hi, with q the largest
    float whose (count - 1)-th power, by repeated squaring, is at most hi/lo; a range too
    narrow for count distinct nodes is rejected."""
    return _node_grid(count, *node_range)


@lru_cache(maxsize=1)  # BetaSettings builds the grid that a beta call then solves on
def _node_grid(count: int, lo: float, hi: float) -> tuple:
    if not 1 <= count <= MAX_NODE_COUNT:
        raise DomainError(f"node count must lie in [1, {MAX_NODE_COUNT}], got {count}")
    _check_nodes((lo, hi))
    if count == 1:
        return (math.sqrt(lo) * math.sqrt(hi),)
    below, above = 1.0, hi / lo
    while below < (mid := 0.5 * (below + above)) < above:
        if _power(mid, count - 1) <= hi / lo:
            below = mid
        else:
            above = mid
    nodes = (*accumulate(repeat(below, count - 2), mul, initial=lo), hi)
    # once lo q rounds above lo, so does x q for every x > lo, as x (q - 1) outgrows half the
    # float spacing: only the first step and the last (rounding overshoots hi) can tie
    if not (nodes[0] < nodes[1] and nodes[-2] < hi):
        raise DomainError(f"node range {lo!r}:{hi!r} is too narrow for {count} distinct nodes")
    return nodes


def _discretize(r: Sequence[float], density) -> Optional[tuple]:
    """Weights density(r_i) times node i's cell, normalized by their fsum; the cells are
    one-sided at the ends and centred inside.  None where no node gets weight."""
    if len(r) == 1:
        return (1.0,)
    cell = [r[1] - r[0], *((c - a) / 2.0 for a, c in zip(r, r[2:])), r[-1] - r[-2]]
    w = [density(x) * h for x, h in zip(r, cell)]
    total = math.fsum(w)
    return tuple(x / total for x in w) if total > 0 else None


def _log(x: float) -> float:
    """ln x for x in [1/sqrt R0, sqrt R0] by a fixed-term series: ln x = 2 atanh z with
    z = (x - 1)/(x + 1), |z| <= 0.541, and two halvings tanh(a/2) = tanh a / (1 + sqrt(1 -
    tanh^2 a)) bring |z| to 0.151, where 10 terms of atanh's series leave 2e-18 relative."""
    z = (x - 1.0) / (x + 1.0)
    for _ in range(2):
        z = z / (1.0 + math.sqrt(1.0 - z * z))
    z2, total = z * z, 0.0
    for c in reversed(_ATANH_TERMS):
        total = total * z2 + c
    return 8.0 * z * total


def _cos(t: float) -> float:
    """cos t for |t| <= pi/3 by 10 terms of its Taylor series, which leave 1e-18."""
    t2, total = t * t, 0.0
    for c in reversed(_COS_TERMS):
        total = total * t2 + c
    return total


def _continuum_density(r: float) -> float:
    """r^(-3/2) cos((sqrt 3 / 2) ln(r / sqrt R0)) on [1, R0], and 0 elsewhere."""
    if not 1.0 <= r <= _R0:
        return 0.0
    return _cos(_OMEGA * _log(r / _SQRT_R0)) / (r * math.sqrt(r))


class ContinuumOptimum(NamedTuple):
    support_end: float  # R0; the support is [1, R0]
    value: float
    density: Callable[[float], float]  # unnormalized, 0 off the support


def continuum_optimum() -> ContinuumOptimum:
    """The radial measure on (0, inf) of least ratio, up to dilation: the density
    w(r) = r^(-3/2) cos(omega ln(r / sqrt R0)) on [1, R0], omega = sqrt(3)/2 and
    R0 = exp(4 pi / (3 sqrt 3)) = 11.2278708..., of ratio 1 / (1 + exp(-2 pi / (3 sqrt 3)) / 2)
    = 0.87015690169029439...; the density takes +, -, *, /, ``math.sqrt`` and literals alone.

    With Q(r, s) = (r^2 + s^2) / (2 max(r, s)), F(r) = 2(Qw)(r) - theta r is
    r P + S / r + R + r^2 T - theta r, where P and S integrate w(s) and s^2 w(s) over s < r,
    R and T integrate s w(s) and w(s)/s over s > r.  Stationarity on the simplex makes F
    constant on the support, so there F' = P - S/r^2 + 2 r T - theta = 0 and
    F'' = 2 (S/r^3 + T - w) = 0.  Differentiating w = S/r^3 + T gives S = -r^4 w'/3, and
    differentiating that, with S' = r^2 w, the Euler equation r^2 w'' + 4 r w' + 3 w = 0.
    Its exponents (-3 +- i sqrt 3)/2 give w = r^(-3/2) cos(omega ln r + phi).  On a support
    [a, b] without atoms, S(a) = 0 forces w'(a) = 0, tan(phase) = -sqrt 3 at a, and
    T(b) = 0 forces w(b) = -b w'(b)/3, tan(phase) = sqrt 3 at b: the phase runs from
    -pi/3 to pi/3, so omega ln(b/a) = 2 pi/3, which is R0.  With r = e^x the antiderivative
    e^(-x/2) (omega sin - cos/2) gives the mass 1 + 1/(2 sqrt R0), and for w normalized,
    F'(R0) = 0 with P = 1, T = 0 gives theta = 1 - S(R0)/R0^2, which is 1 over that mass."""
    return ContinuumOptimum(_R0, 0.8701569016902944, _continuum_density)  # correctly rounded


def _start_weights(r: Sequence[float]) -> tuple:
    """The continuum optimum placed at s [1, R0], s = sqrt(lo hi / R0), on every grid, so the
    start is a function of r / s and moves with the grid under dilation; uniform weights
    where no node gets weight.  On a range narrower than R0, [s, s R0] contains it."""
    r0, _, density = continuum_optimum()
    s = math.sqrt(r[0] * r[-1] / r0)
    return _discretize(r, lambda x: density(x / s)) or tuple(1.0 / len(r) for _ in r)


def minimize_radial_ratio(
    nodes: Optional[Sequence[float]] = None,
    settings: Optional[BetaSettings] = None,
    history: Optional[list] = None,
) -> tuple[RadialMeasure, float]:
    """Minimize the radial ratio over the weight simplex at fixed nodes.

    The start is the continuum optimum (``continuum_optimum``) placed at s [1, R0],
    s = sqrt(lo hi / R0), each node's density times its cell, normalized; on a range
    narrower than R0 every node gets weight, and on a grid with no node in [s, s R0]
    (50 nodes on 1:1e100) the start is uniform.  From it the active set is nearly the
    optimum's: 4 face solves at the defaults, 2 or 3 at 2,000 and 5,000 nodes.  The start
    moves with the grid under dilation, and the kernel runs exactly on the nodes times 2^-k
    (``_unit``), so only hi/lo sets the result and a power-of-two dilation changes no bit;
    what the solve returns or raises carries the given nodes.

    Dinkelbach iteration: each outer step solves min_v Q(v) - theta L(v)
    exactly from the current weights and lowers theta, the best ratio so far,
    to the ratio there; ``history`` gets the start ratio and theta after each
    step.  The subproblem is an active-set method: on the working set's face,
    the bordered solve steps to the stationary point if its curvature is
    positive (else the step is reversed, or, if singular, replaced by the
    projected gradient); weights that reach zero leave the set, and at a face
    minimizer the node with the most negative multiplier joins it, as in
    Lawson-Hanson NNLS.  On the last step a new measure whose ratio ties theta
    within 1e-15 replaces the old one if its KKT residual is smaller.
    """
    if settings is None:
        settings = BetaSettings()
    if nodes is None:
        nodes = default_nodes(settings.node_count, settings.node_range)
    nodes = tuple(map(float, nodes))
    _check_nodes(nodes)
    r = _unit(nodes)  # the kernel runs on r, and every measure keeps the caller's nodes
    best = RadialMeasure(nodes, _start_weights(r))
    theta = radial_ratio(best)
    history = [] if history is None else history
    history.append(theta)
    for _ in range(_OUTER_ITERATIONS):
        v = list(best.weights)
        free, g_all = [x > 0 for x in v], _gradient(r, v, theta)
        for _ in range(4 * len(r) + 10):
            idx = [i for i, f in enumerate(free) if f]
            r_s, g = [r[i] for i in idx], [g_all[i] for i in idx]
            d = _face_solve(r_s, g) or [0.0] * len(idx)
            curvature = 0.5 * math.fsum(map(mul, d, _gradient(r_s, d)))
            newton = curvature > 0
            if curvature < 0:
                d = [-x for x in d]
            elif not newton:
                mean = math.fsum(g) / len(g)
                d = [mean - x for x in g]
                curvature = 0.5 * math.fsum(map(mul, d, _gradient(r_s, d)))
            t = 1.0 if newton else math.fsum(map(mul, d, d)) / (2.0 * curvature) \
                if curvature > 0 else math.inf
            blocks = [(v[i] / -di, i) for i, di in zip(idx, d) if di < 0]
            if blocks:
                block, j = min(blocks)
                step = min(t, block)
                for i, di in zip(idx, d):
                    v[i] = max(v[i] + step * di, 0.0)
                if block < t:
                    v[j] = 0.0
                    free = [x > 0 for x in v]
                g_all = _gradient(r, v, theta)
                if block < t or not newton:
                    continue
            mean = math.fsum(g_all[i] for i in idx) / len(idx)
            lowest, j = min(((g_all[i] - mean, i) for i, f in enumerate(free) if not f),
                            default=(math.inf, None))
            if not lowest < -1e-12 * r[-1]:  # a margin above rounding in the gradient
                break
            free[j] = True
        else:
            raise IterationLimitError("active-set cap reached", best=(best, theta))
        total = math.fsum(v)
        found = RadialMeasure(nodes, [x / total for x in v])
        theta_new = radial_ratio(found)
        done = theta - theta_new < _DINKELBACH_TOLERANCE
        if theta_new < theta or (done and theta_new <= theta + 1e-15
                                 and kkt_residual(found) < kkt_residual(best)):
            best, theta = found, theta_new
        history.append(theta)
        if done:
            return best, theta
    raise IterationLimitError("Dinkelbach iteration cap reached", best=(best, theta))


def kkt_residual(measure: RadialMeasure) -> float:
    """KKT defect of the ratio theta at the measure: with g = 2Qw - theta r, the larger of
    g's spread on the support and its largest drop off the support below its mean there,
    over the largest node (so dilation leaves it unchanged)."""
    r, w = _unit(measure.nodes), measure.weights
    g = _gradient(r, w, radial_ratio(measure))
    on = [gi for gi, wi in zip(g, w) if wi > 0]
    off = min((gi for gi, wi in zip(g, w) if not wi > 0), default=math.inf)
    return max(max(on) - min(on), math.fsum(on) / len(on) - off) / r[-1]


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
    # dinkelbach_steps, support_size, kkt_residual of the radial minimum, and continuum_gap,
    # its excess over the continuum optimum's value
    diagnostics: dict


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
                     "support_size": len(measure.weights) - measure.weights.count(0.0),
                     "kkt_residual": kkt_residual(measure),
                     "continuum_gap": optimized - continuum_optimum().value},
    )
