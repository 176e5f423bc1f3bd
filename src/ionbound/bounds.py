"""Closed-form ionization bound calculators, the derived constant chain, and
grid verifiers for the supporting inequalities.

All calculators are total on their stated domains and deterministic.  Grid
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

CROSSOVER_SCAN_CAP = 10**6


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
    """Per-charge model parameters for the bound calculators.

    The universal constants C_universal, C_kappa and C_2 have no derived
    values; the defaults of 1.0 are placeholders the caller should override.
    ``n_c`` and ``energy gaps`` cannot be computed here and must be supplied
    for the general magnetic bound.
    """

    Z: float
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
        numbers = (self.Z, self.B, self.k, self.beta_lower, self.coeff, self.C_universal,
                   self.C_kappa, self.C_2, self.kappa, 0.0 if self.n_c is None else self.n_c)
        if not all(map(math.isfinite, numbers)):
            raise DomainError("bound inputs must be finite")
        if self.model not in MODELS:
            raise DomainError(f"unknown model {self.model!r}")
        if self.Z <= 0:
            raise DomainError("Z must be positive")
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


def bound_row(inputs: BoundInputs) -> BoundRow:
    """Classical bound 2Z+1, closed-form bound coeff*Z + 3 Z^(1/3), and the
    implicit particle-count bound solved by bisection to 1e-9 relative.
    """
    if inputs.model != "nonrel":
        raise DomainError("bound_row applies to the nonrel model")
    z, beta = inputs.Z, inputs.beta_lower
    lieb = 2.0 * z + 1.0
    main = inputs.coeff * z + 3.0 * z ** (1.0 / 3.0)
    lo = max(2.0, z / beta)
    hi = 2.0 * lo
    for _ in range(200):
        if _implicit_lhs(hi, beta) > z:
            break
        hi *= 2.0
    else:
        raise RootBracketError("could not bracket the implicit bound")
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if _implicit_lhs(mid, beta) < z:
            lo = mid
        else:
            hi = mid
    return BoundRow(lieb=lieb, main=main, implicit_n=0.5 * (lo + hi))


def ionization_lemma_margin(n: int, z: float, alpha_value: float) -> float:
    """Margin Z (1 + 0.68 N^(-2/3)) - alpha*(N-1); positive means (N, Z) survives."""
    if n < 2:
        raise DomainError("n must be >= 2")
    if z <= 0:
        raise DomainError("z must be positive")
    if not 0.0 < alpha_value < 1.0:
        raise DomainError("alpha_value must lie in (0, 1)")
    return z * (1.0 + KINETIC_COEFF * n ** (-2.0 / 3.0)) - alpha_value * (n - 1)


def magnetic_bound(inputs: BoundInputs, energy_gap: Optional[float] = None) -> float:
    """Particle-count bound for atoms in a magnetic field.

    The general form needs the externally computed ground-state energy gap
    E(N_c, Z, B) - E(N_c, kZ, B) together with N_c.  The homogeneous-field
    form is closed except for the universal constant C_universal; its
    logarithmic branch is never evaluated at B = 0, where the min is 0.
    """
    base = inputs.coeff * inputs.Z + 3.0 * inputs.Z ** (1.0 / 3.0)
    if inputs.model == "magnetic-general":
        if energy_gap is None or inputs.n_c is None:
            raise MissingEnergyGapError(
                "magnetic-general needs energy_gap and n_c supplied"
            )
        return base * (1.0 + energy_gap / (inputs.n_c * inputs.Z**2 * (inputs.k - 1.0)))
    if inputs.model == "magnetic-homogeneous":
        if inputs.B == 0.0:
            field_term = 0.0
        else:
            t = inputs.B / inputs.Z**3
            field_term = min(
                0.42 * t**0.4, inputs.C_universal * (1.0 + math.log(t) ** 2)
            )
        return base * (1.0 + 11.8 * inputs.Z ** (-2.0 / 3.0) + field_term)
    raise DomainError("magnetic_bound applies to the magnetic models")


def relativistic_or_bosonic_bound(inputs: BoundInputs) -> float:
    """Particle-count bound for the pseudo-relativistic and bosonic models."""
    z = inputs.Z
    if inputs.model == "relativistic":
        if inputs.kappa >= 2.0 / math.pi:
            raise KappaDomainError(
                f"kappa = {inputs.kappa:g} must stay below 2/pi = {2.0 / math.pi:.6f}"
            )
        return inputs.coeff * z + inputs.C_kappa * z ** (1.0 / 3.0)
    if inputs.model == "bosonic-magnetic":
        if inputs.B == 0.0:
            field_term = 1.0
        else:
            t = inputs.B / z**2
            field_term = min(1.0 + 4.0 * t, inputs.C_2 * math.log(t) ** 2)
        return (z / inputs.beta_lower + 3.0 * z ** (1.0 / 3.0)) * (1.0 + field_term)
    raise DomainError("applies to the relativistic and bosonic-magnetic models")


def crossover_z(inputs: BoundInputs) -> int:
    """Smallest integer charge where coeff*Z + 3 Z^(1/3) beats 2Z + 1."""
    for z in range(1, CROSSOVER_SCAN_CAP + 1):
        if inputs.coeff * z + 3.0 * z ** (1.0 / 3.0) < 2.0 * z + 1.0:
            return z
    raise NoCrossoverError(f"no crossover below {CROSSOVER_SCAN_CAP}")


# ---------------------------------------------------------------------------
# lemma verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaGrid:
    """Grid specification for verify_lemma; unused axes are ignored per lemma."""

    z_points: int = 120
    z_range: tuple[float, float] = (0.5, 120.0)
    ratio_points: int = 120
    ratio_range: tuple[float, float] = (0.1, 2.33)
    beta_points: int = 1
    beta_range: tuple[float, float] = (DEFAULT_BETA_LOWER, DEFAULT_BETA_LOWER)
    n_above: int = 24
    real_n: bool = False

    def __post_init__(self):
        if min(self.z_points, self.ratio_points, self.beta_points, self.n_above) < 1:
            raise DegenerateGridError("grid counts must be >= 1")
        if not all(map(math.isfinite, (*self.z_range, *self.ratio_range, *self.beta_range))):
            raise DomainError("grid ranges must be finite")
        if self.beta_range[0] < DEFAULT_BETA_LOWER:
            raise DomainError(f"beta grid values must be >= {DEFAULT_BETA_LOWER}")
        if self.ratio_range[1] >= 7.0 / 3.0:
            raise DomainError("ratio grid must stay below 7/3, the lemma3 hypothesis")

    def betas(self) -> np.ndarray:
        if self.beta_points == 1:
            return np.array([self.beta_range[0]])
        return np.linspace(*self.beta_range, self.beta_points)

    def zs(self) -> np.ndarray:
        return np.geomspace(*self.z_range, self.z_points)

    def as_dict(self) -> dict:
        return {
            "z_points": self.z_points,
            "z_range": list(self.z_range),
            "ratio_points": self.ratio_points,
            "ratio_range": list(self.ratio_range),
            "beta_points": self.beta_points,
            "beta_range": list(self.beta_range),
            "n_above": self.n_above,
            "real_n": self.real_n,
        }


def _lemma3_margins(z: np.ndarray, ratio: np.ndarray, beta: float):
    """Margin of the closed-form bound over min(N, implicit branch) on a (Z, N/Z) grid."""
    zz, rr = np.meshgrid(z, ratio, indexing="ij")
    nn = zz * rr
    u = nn ** (-2.0 / 3.0)
    denom = beta - _beta1(beta) * u
    branch2 = np.where(denom > 0, zz * (1.0 + KINETIC_COEFF * u) / np.where(denom > 0, denom, 1.0), np.inf)
    bound = np.minimum(nn, branch2)
    return (1.0 / beta) * zz + 3.0 * zz ** (1.0 / 3.0) - bound, zz, nn


def _lemma4_margin(n, z, beta: float):
    u = np.asarray(n, dtype=float) ** (-2.0 / 3.0)
    return (beta - _beta1(beta) * u) * (1.0 / beta + 3.0 * np.asarray(z, dtype=float) ** (-2.0 / 3.0)) - 1.0


def lemma4_threshold(z, beta: float):
    """Hypothesis threshold beta^-1 Z + 3 Z^(-2/3), with the exponent as printed."""
    z = np.asarray(z, dtype=float)
    return z / beta + 3.0 * z ** (-2.0 / 3.0)


def _cubic(x, beta: float):
    return KINETIC_COEFF - 3.0 * beta * np.asarray(x, dtype=float) ** 2 + _beta1(beta) * np.asarray(x, dtype=float) ** 3


def verify_lemma(lemma: str, grid: Optional[LemmaGrid] = None) -> LemmaReport:
    """Evaluate one supporting inequality over a parameter grid.

    lemma3: the closed-form bound must exceed min(N, implicit branch) for
    N/Z < 7/3.  lemma4: the product inequality at integer N above the printed
    hypothesis threshold; with ``real_n`` the same margins are scanned at
    non-integer N and failures there are only counted as out-of-hypothesis.
    cubic-signs: the cubic h(x) = 0.68 - 3 beta x^2 + beta1 x^3 must be
    positive at 0 and negative at beta^(-1/3) and (7/3)^(1/3).
    """
    if grid is None:
        grid = LemmaGrid()
    if lemma == "lemma3":
        min_margin = math.inf
        witness = ()
        for beta in grid.betas():
            margins, zz, nn = _lemma3_margins(grid.zs(), np.geomspace(*grid.ratio_range, grid.ratio_points), float(beta))
            i, j = np.unravel_index(int(np.argmin(margins)), margins.shape)
            if margins[i, j] < min_margin:
                min_margin = float(margins[i, j])
                witness = (float(zz[i, j]), float(nn[i, j]), float(beta))
        return LemmaReport(
            lemma="lemma3",
            grid=grid.as_dict(),
            min_margin=min_margin,
            passed=min_margin > 0,
            witness=witness,
        )
    if lemma == "lemma4":
        min_margin = math.inf
        witness = ()
        out_of_hypothesis = 0
        for beta in grid.betas():
            beta = float(beta)
            for z in grid.zs():
                z = float(z)
                threshold = float(lemma4_threshold(z, beta))
                first = math.ceil(threshold)
                ints = np.arange(first, first + grid.n_above, dtype=float)
                margins = _lemma4_margin(ints, z, beta)
                i = int(np.argmin(margins))
                if margins[i] < min_margin:
                    min_margin = float(margins[i])
                    witness = (z, float(ints[i]), beta)
                if grid.real_n:
                    reals = np.linspace(threshold, threshold + grid.n_above, 4 * grid.n_above + 1)
                    out_of_hypothesis += int(
                        np.sum((_lemma4_margin(reals, z, beta) <= 0) & (reals != np.round(reals)))
                    )
        return LemmaReport(
            lemma="lemma4",
            grid=grid.as_dict(),
            min_margin=min_margin,
            passed=min_margin > 0,
            witness=witness,
            out_of_hypothesis=out_of_hypothesis,
        )
    if lemma == "cubic-signs":
        min_margin = math.inf
        witness = ()
        for beta in grid.betas():
            beta = float(beta)
            checks = (
                ("h(0) > 0", float(_cubic(0.0, beta))),
                ("h(beta^(-1/3)) < 0", -float(_cubic(beta ** (-1.0 / 3.0), beta))),
                ("h((7/3)^(1/3)) < 0", -float(_cubic((7.0 / 3.0) ** (1.0 / 3.0), beta))),
            )
            for name, margin in checks:
                if margin < min_margin:
                    min_margin = margin
                    witness = (beta, name)
        return LemmaReport(
            lemma="cubic-signs",
            grid=grid.as_dict(),
            min_margin=min_margin,
            passed=min_margin > 0,
            witness=witness,
        )
    raise DomainError(f"unknown lemma id {lemma!r}")
