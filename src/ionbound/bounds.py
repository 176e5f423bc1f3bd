"""Closed-form ionization bound calculators, the derived constant chain, and
grid verifiers for the supporting inequalities.

All calculators are total on their stated domains and deterministic.  The
implicit particle-count bound (``implicit_N`` of the bounds table) comes from
one vectorised bisection over the whole Z grid, to 1e-9 relative.  Grid
verifications reduce with value-then-lexicographic-witness order, so reports
are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .beta import DEFAULT_BETA_LOWER
from .errors import (
    DegenerateGridError,
    DomainError,
    KappaDomainError,
    MissingEnergyGapError,
    NoCrossoverError,
    RootBracketError,
)

MODELS = (
    "nonrel",
    "magnetic-general",
    "magnetic-homogeneous",
    "relativistic",
    "bosonic-magnetic",
)

# Kinetic-correction coefficient of the exclusion lemma, conservative by
# construction relative to the exact constant chain below.
KINETIC_COEFF = 0.68

MEAN_RADIUS_COEFF = 0.553


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysicalConstants:
    """The kinetic/radial constant chain and its two derived coefficients."""

    L: float
    A: float
    K: float
    C1: float
    c_radius: float
    c_kinetic: float


@dataclass(frozen=True)
class BoundInputs:
    """Model parameters that every row of a bound table shares; each
    calculator takes the charge Z as its own argument.

    The universal constants C_universal, C_kappa and C_2 have no derived
    values; the defaults of 1.0 are placeholders the caller should override.
    ``n_c`` and ``energy gaps`` cannot be computed here and must be supplied
    for the general magnetic bound.
    """

    model: str = "nonrel"
    B: float = 0.0
    k: float = 2.0
    beta_lower: float = DEFAULT_BETA_LOWER
    coeff: float = 1.22
    C_universal: float = 1.0
    C_kappa: float = 1.0
    C_2: float = 1.0
    kappa: float = 0.5
    n_c: Optional[float] = None

    def __post_init__(self):
        numbers = (self.B, self.k, self.beta_lower, self.coeff, self.C_universal,
                   self.C_kappa, self.C_2, self.kappa, 0.0 if self.n_c is None else self.n_c)
        if not all(map(math.isfinite, numbers)):
            raise DomainError("bound inputs must be finite")
        if self.model not in MODELS:
            raise DomainError(f"unknown model {self.model!r}")
        if self.B < 0:
            raise DomainError("B must be non-negative")
        if self.k <= 1:
            raise DomainError("k must exceed 1")
        if not 0.0 < self.beta_lower < 1.0:
            raise DomainError("beta_lower must lie in (0, 1)")
        # tolerance admits the exact boundary coeff = 1/beta_lower in floats
        if self.coeff * self.beta_lower < 1.0 - 1e-12:
            raise DomainError("coeff must be at least 1/beta_lower")
        if min(self.C_universal, self.C_kappa, self.C_2) <= 0:
            raise DomainError("universal constants must be positive")


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one grid verification.

    ``passed`` is exactly (min_margin > 0) over the in-hypothesis grid;
    ``out_of_hypothesis`` counts flagged failures at points that do not
    satisfy the inequality's hypothesis (real particle counts) and never
    affects ``passed``.
    """

    lemma: str
    grid: dict
    min_margin: float
    passed: bool
    witness: tuple
    out_of_hypothesis: int = 0


class BoundRow(NamedTuple):
    lieb: float
    main: float
    implicit_n: float


# ---------------------------------------------------------------------------
# constant chain
# ---------------------------------------------------------------------------

def derived_constants() -> PhysicalConstants:
    """Evaluate the closed-form constant chain.

    c_radius multiplies Z^-1 N^(2/3) in the mean-radius lower bound and
    exceeds the rounded 0.553 used by the calculators; c_kinetic = (3/8) /
    c_radius stays below the rounded 0.68.
    """
    L = 1.0 / (math.pi * 3.0**1.5 * 5.0)
    A = (3.0 ** (1.0 / 3.0) / 2.0) * 2.0 ** (2.0 / 3.0)
    K = 2.0 ** (-2.0 / 3.0) * (3.0 / 10.0) * (2.0 / (5.0 * L)) ** (2.0 / 3.0)
    C1 = (
        math.pi ** (-1.0 / 3.0)
        * 2.0**-1.0
        * 3.0 ** (5.0 / 3.0)
        * 5.0 ** (5.0 / 6.0)
        * 7.0 ** (1.0 / 3.0)
        * 11.0**-1.5
    )
    c_radius = C1 * math.sqrt(K / A)
    return PhysicalConstants(
        L=L, A=A, K=K, C1=C1, c_radius=c_radius, c_kinetic=(3.0 / 8.0) / c_radius
    )


def mean_radius_lower(n: int, z: float) -> float:
    """Lower bound 0.553 Z^-1 N^(2/3) on the mean electron-nucleus distance."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if z <= 0:
        raise DomainError("z must be positive")
    return MEAN_RADIUS_COEFF * n ** (2.0 / 3.0) / z


# ---------------------------------------------------------------------------
# bound calculators
# ---------------------------------------------------------------------------

def _beta1(beta: float) -> float:
    return 3.0 * (beta / 6.0) ** (1.0 / 3.0)


def _implicit_lhs(n, beta: float):
    """N (beta - beta1 N^(-2/3)) / (1 + 0.68 N^(-2/3)); increasing past its zero."""
    u = np.asarray(n, dtype=float) ** (-2.0 / 3.0)
    return np.asarray(n, dtype=float) * (beta - _beta1(beta) * u) / (1.0 + KINETIC_COEFF * u)


def implicit_bound(z, beta: float) -> np.ndarray:
    """Implicit particle-count bound for every charge of ``z``: the root N of
    N (beta - beta1 N^(-2/3)) / (1 + 0.68 N^(-2/3)) = Z, by one bisection over
    the array to 1e-9 relative.

    Each row starts from [max(2, Z/beta), 2 max(2, Z/beta)], doubles its upper
    end until the left side exceeds Z, and freezes once hi - lo <= 1e-9 hi.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z) & (z > 0)):
        raise DomainError("Z must be positive and finite")
    if not 0.0 < beta < 1.0:
        raise DomainError("beta_lower must lie in (0, 1)")
    # Z near the float maximum overflows to inf rows, as Python floats would
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.maximum(2.0, z / beta)
        hi = 2.0 * lo
        for _ in range(200):
            short = _implicit_lhs(hi, beta) <= z
            if not short.any():
                break
            hi = np.where(short, 2.0 * hi, hi)
        else:
            raise RootBracketError("could not bracket the implicit bound")
        active = hi - lo > 1e-9 * hi
        while active.any():
            mid = 0.5 * (lo + hi)
            below = _implicit_lhs(mid, beta) < z
            lo = np.where(active & below, mid, lo)
            hi = np.where(active & ~below, mid, hi)
            active = hi - lo > 1e-9 * hi
        return 0.5 * (lo + hi)


def _check_charge(z: float) -> None:
    if not (math.isfinite(z) and z > 0):
        raise DomainError("Z must be positive and finite")


def bound_row(z: float, inputs: BoundInputs) -> BoundRow:
    """Classical bound 2Z+1, closed-form bound coeff*Z + 3 Z^(1/3), and the
    implicit particle-count bound of ``implicit_bound``, at charge ``z``.
    """
    if inputs.model != "nonrel":
        raise DomainError("bound_row applies to the nonrel model")
    _check_charge(z)
    return BoundRow(
        lieb=2.0 * z + 1.0,
        main=inputs.coeff * z + 3.0 * z ** (1.0 / 3.0),
        implicit_n=float(implicit_bound([z], inputs.beta_lower)[0]),
    )


def ionization_lemma_margin(n: int, z: float, alpha_value: float) -> float:
    """Margin Z (1 + 0.68 N^(-2/3)) - alpha*(N-1); positive means (N, Z) survives."""
    if n < 2:
        raise DomainError("n must be >= 2")
    if z <= 0:
        raise DomainError("z must be positive")
    if not 0.0 < alpha_value < 1.0:
        raise DomainError("alpha_value must lie in (0, 1)")
    return z * (1.0 + KINETIC_COEFF * n ** (-2.0 / 3.0)) - alpha_value * (n - 1)


def magnetic_bound(z: float, inputs: BoundInputs, energy_gap: Optional[float] = None) -> float:
    """Particle-count bound at charge ``z`` for atoms in a magnetic field.

    The general form needs the externally computed ground-state energy gap
    E(N_c, Z, B) - E(N_c, kZ, B) together with N_c.  The homogeneous-field
    form is closed except for the universal constant C_universal; where
    B / Z^3 is 0 (B = 0, or underflow) the field term is its limit 0, and
    the logarithm is never evaluated.
    """
    _check_charge(z)
    base = inputs.coeff * z + 3.0 * z ** (1.0 / 3.0)
    if inputs.model == "magnetic-general":
        if energy_gap is None or inputs.n_c is None:
            raise MissingEnergyGapError(
                "magnetic-general needs energy_gap and n_c supplied"
            )
        return base * (1.0 + energy_gap / (inputs.n_c * z**2 * (inputs.k - 1.0)))
    if inputs.model == "magnetic-homogeneous":
        t = inputs.B / z**3
        if t == 0.0:  # B = 0, or B / Z^3 below the smallest float
            field_term = 0.0
        else:
            field_term = min(
                0.42 * t**0.4, inputs.C_universal * (1.0 + math.log(t) ** 2)
            )
        return base * (1.0 + 11.8 * z ** (-2.0 / 3.0) + field_term)
    raise DomainError("magnetic_bound applies to the magnetic models")


def relativistic_or_bosonic_bound(z: float, inputs: BoundInputs) -> float:
    """Particle-count bound at charge ``z`` for the pseudo-relativistic and bosonic models."""
    _check_charge(z)
    if inputs.model == "relativistic":
        if inputs.kappa >= 2.0 / math.pi:
            raise KappaDomainError(
                f"kappa = {inputs.kappa:g} must stay below 2/pi = {2.0 / math.pi:.6f}"
            )
        return inputs.coeff * z + inputs.C_kappa * z ** (1.0 / 3.0)
    if inputs.model == "bosonic-magnetic":
        t = inputs.B / z**2
        if t == 0.0:  # B = 0, or B / Z^2 below the smallest float
            field_term = 1.0
        else:
            field_term = min(1.0 + 4.0 * t, inputs.C_2 * math.log(t) ** 2)
        return (z / inputs.beta_lower + 3.0 * z ** (1.0 / 3.0)) * (1.0 + field_term)
    raise DomainError("applies to the relativistic and bosonic-magnetic models")


def crossover_z(inputs: BoundInputs) -> int:
    """Smallest integer charge where coeff*Z + 3 Z^(1/3) beats 2Z + 1.

    With t = Z^(1/3) and a = 2 - coeff the inequality reads a t^3 - 3t + 1 > 0.
    For Z >= 1 it holds exactly past the cube of that cubic's largest root,
    which places the answer; the integer test 27 Z < (a Z + 1)^3, exact in
    the rational a, then settles it.
    """
    if inputs.coeff >= 2.0:
        raise NoCrossoverError(f"coeff = {inputs.coeff!r} >= 2 never beats 2Z + 1")
    m, q = inputs.coeff.as_integer_ratio()
    p = 2 * q - m  # a = p / q exactly

    def beats(z: int) -> bool:
        return 27 * z * q**3 < (p * z + q) ** 3

    a = p / q
    t = 2.0 / math.sqrt(a) * math.cos(math.acos(-0.5 * math.sqrt(a)) / 3.0)
    # gallop out from the float root to integers lo < hi with beats(hi) and
    # lo = 0 or not beats(lo), then bisect; the root is good to ~1e-15 relative
    hi = max(1, math.ceil(t**3))
    lo, step = hi - 1, 1
    while not beats(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while lo > 0 and beats(lo):
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if beats(mid) else (mid, hi)
    return hi


# ---------------------------------------------------------------------------
# lemma verifiers
# ---------------------------------------------------------------------------

# fixed geometric spans of the Z and N/Z axes; N/Z stays below 7/3, the lemma3 hypothesis
_Z_RANGE = (0.5, 120.0)
_RATIO_RANGE = (0.1, 2.33)

# Largest grid array accepted: lemma3 holds five float arrays of
# z_points * ratio_points, so 10^7 points keep it near 0.4 GB.
MAX_GRID_POINTS = 10_000_000
# the beta axis is one linspace array
MAX_BETA_POINTS = 1_000_000


@dataclass(frozen=True)
class LemmaGrid:
    """Grid specification for verify_lemma; unused axes are ignored per lemma."""

    z_points: int = 120
    ratio_points: int = 120
    beta_points: int = 1
    beta_range: tuple[float, float] = (DEFAULT_BETA_LOWER, DEFAULT_BETA_LOWER)
    n_above: int = 24
    real_n: bool = False

    def __post_init__(self):
        if min(self.z_points, self.ratio_points, self.beta_points, self.n_above) < 1:
            raise DegenerateGridError("grid counts must be >= 1")
        # the (Z, N/Z) arrays of lemma3 and the (Z, real N) arrays of lemma4
        points = self.z_points * max(self.ratio_points, 4 * self.n_above + 1)
        if points > MAX_GRID_POINTS:
            raise DomainError(f"grid arrays must hold at most {MAX_GRID_POINTS} points, got {points}")
        if self.beta_points > MAX_BETA_POINTS:
            raise DomainError(f"beta grid must have at most {MAX_BETA_POINTS} points, got {self.beta_points}")
        if not all(map(math.isfinite, self.beta_range)):
            raise DomainError("grid ranges must be finite")
        if self.beta_range[0] < DEFAULT_BETA_LOWER:
            raise DomainError(f"beta grid values must be >= {DEFAULT_BETA_LOWER}")

    def betas(self) -> np.ndarray:
        return np.linspace(*self.beta_range, self.beta_points)  # [lo] at one point

    def zs(self) -> np.ndarray:
        return np.geomspace(*_Z_RANGE, self.z_points)

    def as_dict(self) -> dict:
        return {
            "z_points": self.z_points,
            "z_range": list(_Z_RANGE),
            "ratio_points": self.ratio_points,
            "ratio_range": list(_RATIO_RANGE),
            "beta_points": self.beta_points,
            "beta_range": list(self.beta_range),
            "n_above": self.n_above,
            "real_n": self.real_n,
        }


# Each margin factory takes the grid, builds what every beta shares, and returns a
# function that maps beta to the margins at that beta, the witness of an index
# into them, and the count of out-of-hypothesis failures.

def _lemma3_margins(grid: LemmaGrid):
    """Margin of the closed-form bound over min(N, implicit branch) on a (Z, N/Z) grid.

    The beta-independent arrays are built once; each beta then writes into two
    work arrays, so the margins it returns are overwritten by the next call.
    """
    z = grid.zs()[:, None]
    nn = z * np.geomspace(*_RATIO_RANGE, grid.ratio_points)
    u = nn ** (-2.0 / 3.0)
    numerator = z * (1.0 + KINETIC_COEFF * u)
    cube_root_term = 3.0 * z ** (1.0 / 3.0)
    denom, margins = np.empty_like(nn), np.empty_like(nn)
    positive = np.empty(nn.shape, dtype=bool)

    def margins_at(beta: float):
        np.subtract(beta, np.multiply(_beta1(beta), u, out=denom), out=denom)
        np.greater(denom, 0.0, out=positive)
        margins.fill(np.inf)  # the implicit branch, infinite where denom <= 0
        np.divide(numerator, denom, out=margins, where=positive)
        np.minimum(nn, margins, out=margins)
        np.subtract((1.0 / beta) * z + cube_root_term, margins, out=margins)
        return margins, lambda i: (float(z[i[0], 0]), float(nn[i]), beta), 0

    return margins_at


def _lemma4_margin(n, z, beta: float):
    u = np.asarray(n, dtype=float) ** (-2.0 / 3.0)
    return (beta - _beta1(beta) * u) * (1.0 / beta + 3.0 * np.asarray(z, dtype=float) ** (-2.0 / 3.0)) - 1.0


def lemma4_threshold(z, beta: float):
    """Hypothesis threshold beta^-1 Z + 3 Z^(-2/3), with the exponent as printed."""
    z = np.asarray(z, dtype=float)
    return z / beta + 3.0 * z ** (-2.0 / 3.0)


def _lemma4_margins(grid: LemmaGrid):
    """Margins at the first n_above integers N past the threshold of each Z; with
    ``real_n``, failures at non-integer N there are counted as out-of-hypothesis."""
    z = grid.zs()[:, None]

    def margins_at(beta: float):
        threshold = lemma4_threshold(z[:, 0], beta)
        ints = np.ceil(threshold)[:, None] + np.arange(grid.n_above, dtype=float)
        outside = 0
        if grid.real_n:
            reals = np.linspace(threshold, threshold + grid.n_above, 4 * grid.n_above + 1, axis=1)
            outside = int(np.sum((_lemma4_margin(reals, z, beta) <= 0) & (reals != np.round(reals))))
        return _lemma4_margin(ints, z, beta), lambda i: (float(z[i[0], 0]), float(ints[i]), beta), outside

    return margins_at


_CUBIC_CHECKS = ("h(0) > 0", "h(beta^(-1/3)) < 0", "h((7/3)^(1/3)) < 0")


def _cubic_sign_margins(beta: float):
    """h(x) = 0.68 - 3 beta x^2 + beta1 x^3 at 0, and -h at beta^(-1/3) and (7/3)^(1/3)."""
    x = np.array([0.0, beta ** (-1.0 / 3.0), (7.0 / 3.0) ** (1.0 / 3.0)])
    margins = np.array([1.0, -1.0, -1.0]) * (KINETIC_COEFF - 3.0 * beta * x**2 + _beta1(beta) * x**3)
    return margins, lambda i: (beta, _CUBIC_CHECKS[i[0]]), 0


_MARGINS = {
    "lemma3": _lemma3_margins,
    "lemma4": _lemma4_margins,
    "cubic-signs": lambda grid: _cubic_sign_margins,
}


def verify_lemma(lemma: str, grid: LemmaGrid = LemmaGrid()) -> LemmaReport:
    """Evaluate one supporting inequality over a parameter grid.

    lemma3: the closed-form bound must exceed min(N, implicit branch) for
    N/Z < 7/3.  lemma4: the product inequality at integer N above the printed
    hypothesis threshold; with ``real_n`` the same margins are scanned at
    non-integer N and failures there are only counted as out-of-hypothesis.
    cubic-signs: the cubic h(x) = 0.68 - 3 beta x^2 + beta1 x^3 must be
    positive at 0 and negative at beta^(-1/3) and (7/3)^(1/3).  The grid's
    beta-independent arrays are built once per call and shared by every
    beta.  The witness is the first minimum in C order (the smallest Z, then
    the smallest N) at the first beta that attains it.
    """
    if lemma not in _MARGINS:
        raise DomainError(f"unknown lemma id {lemma!r}")
    margins_at = _MARGINS[lemma](grid)
    min_margin, witness, out_of_hypothesis = math.inf, (), 0
    for beta in grid.betas():
        margins, witness_at, outside = margins_at(float(beta))
        i = np.unravel_index(int(np.argmin(margins)), margins.shape)
        if margins[i] < min_margin:
            min_margin, witness = float(margins[i]), witness_at(i)
        out_of_hypothesis += outside
    return LemmaReport(
        lemma=lemma,
        grid=grid.as_dict(),
        min_margin=min_margin,
        passed=min_margin > 0,
        witness=witness,
        out_of_hypothesis=out_of_hypothesis,
    )
