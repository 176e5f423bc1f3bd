"""Grid verifiers for the inequalities that support the bounds: lemma3, lemma4
and the signs of the cubic h.

Each verification evaluates its margins over a numpy grid and reduces them in
value-then-lexicographic-witness order, so reports are reproducible.  The bound
calculators in ``bounds`` are pure Python; this is the numpy layer beside them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import DEFAULT_BETA_LOWER
from .bounds import KINETIC_COEFF, _beta1
from .errors import Checked, DomainError


class LemmaReport(NamedTuple):
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
    out_of_hypothesis: int


# fixed geometric spans of the Z and N/Z axes; N/Z stays below 7/3, the lemma3 hypothesis
_Z_RANGE = (0.5, 120.0)
_RATIO_RANGE = (0.1, 2.33)

# Largest grid array accepted: lemma3 holds five float arrays of
# z_points * ratio_points, so 10^7 points keep it near 0.4 GB.
MAX_GRID_POINTS = 10_000_000
# the beta axis is one linspace array
MAX_BETA_POINTS = 1_000_000


class _GridFields(NamedTuple):
    z_points: int = 120
    ratio_points: int = 120
    beta_points: int = 1
    beta_range: tuple[float, float] = (DEFAULT_BETA_LOWER, DEFAULT_BETA_LOWER)
    n_above: int = 24
    real_n: bool = False


class LemmaGrid(Checked, _GridFields):
    """Grid specification for verify_lemma; unused axes are ignored per lemma."""

    __slots__ = ()

    def _check(self):
        if min(self.z_points, self.ratio_points, self.beta_points, self.n_above) < 1:
            raise DomainError("grid counts must be >= 1")
        # the (Z, N/Z) arrays of lemma3 and the (Z, real N) arrays of lemma4
        points = self.z_points * max(self.ratio_points, 4 * self.n_above + 1)
        if points > MAX_GRID_POINTS:
            raise DomainError(f"grid arrays must hold at most {MAX_GRID_POINTS} points, got {points}")
        if self.beta_points > MAX_BETA_POINTS:
            raise DomainError(f"beta grid must have at most {MAX_BETA_POINTS} points, got {self.beta_points}")
        if not all(map(math.isfinite, self.beta_range)):
            raise DomainError("grid ranges must be finite")
        lo, hi = self.beta_range
        if lo < DEFAULT_BETA_LOWER:
            raise DomainError(f"beta grid values must be >= {DEFAULT_BETA_LOWER}")
        if not lo <= hi < 1:
            raise DomainError(f"beta range {lo:g}:{hi:g} needs lo <= hi < 1")

    def betas(self) -> np.ndarray:
        return np.linspace(*self.beta_range, self.beta_points)  # [lo] at one point

    def zs(self) -> np.ndarray:
        return np.geomspace(*_Z_RANGE, self.z_points)

    def as_dict(self) -> dict:
        """The grid as evaluated: at one beta point the range echoes as [lo, lo]."""
        lo, hi = self.beta_range
        return {
            "z_points": self.z_points,
            "z_range": list(_Z_RANGE),
            "ratio_points": self.ratio_points,
            "ratio_range": list(_RATIO_RANGE),
            "beta_points": self.beta_points,
            "beta_range": [lo, hi if self.beta_points > 1 else lo],
            "n_above": self.n_above,
            "real_n": self.real_n,
        }


# Each margin generator builds what every beta shares once, then yields blocks over
# one or more betas: the margins, the witness of an index into them and the count of
# out-of-hypothesis failures.  The next block may overwrite a block's arrays.

def _lemma3_margins(grid: LemmaGrid):
    """Margin of the closed-form bound over min(N, implicit branch) on a (Z, N/Z) grid.

    The beta-independent arrays are built once; each beta then writes into two
    work arrays, so the margins of one block are overwritten by the next.
    """
    z = grid.zs()[:, None]
    nn = z * np.geomspace(*_RATIO_RANGE, grid.ratio_points)
    u = nn ** (-2.0 / 3.0)
    numerator = z * (1.0 + KINETIC_COEFF * u)
    cube_root_term = 3.0 * z ** (1.0 / 3.0)
    denom, margins = np.empty_like(nn), np.empty_like(nn)
    positive = np.empty(nn.shape, dtype=bool)
    for beta in map(float, grid.betas()):
        np.subtract(beta, np.multiply(_beta1(beta), u, out=denom), out=denom)
        np.greater(denom, 0.0, out=positive)
        margins.fill(np.inf)  # the implicit branch, infinite where denom <= 0
        np.divide(numerator, denom, out=margins, where=positive)
        np.minimum(nn, margins, out=margins)
        np.subtract((1.0 / beta) * z + cube_root_term, margins, out=margins)
        yield margins, lambda i: (float(z[i[0], 0]), float(nn[i]), beta), 0


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
    for beta in map(float, grid.betas()):
        threshold = lemma4_threshold(z[:, 0], beta)
        ints = np.ceil(threshold)[:, None] + np.arange(grid.n_above, dtype=float)
        outside = 0
        if grid.real_n:
            reals = np.linspace(threshold, threshold + grid.n_above, 4 * grid.n_above + 1, axis=1)
            outside = int(np.sum((_lemma4_margin(reals, z, beta) <= 0) & (reals != np.round(reals))))
        yield _lemma4_margin(ints, z, beta), lambda i: (float(z[i[0], 0]), float(ints[i]), beta), outside


_CUBIC_CHECKS = ("h(0) > 0", "h(beta^(-1/3)) < 0", "h((7/3)^(1/3)) < 0")
# betas per cubic-signs block: larger blocks ran no faster and held more memory
_CUBIC_BLOCK = 1024


def _cubic_sign_margins(grid: LemmaGrid):
    """h(x) = 0.68 - 3 beta x^2 + beta1 x^3 at 0, and -h at beta^(-1/3) and (7/3)^(1/3),
    as one row of three margins per beta."""
    for block in np.split(grid.betas(), range(_CUBIC_BLOCK, grid.beta_points, _CUBIC_BLOCK)):
        # beta^(-1/3) and beta1 in Python floats: numpy's power is not known to round alike
        x = np.array([(0.0, b ** (-1.0 / 3.0), (7.0 / 3.0) ** (1.0 / 3.0)) for b in block.tolist()])
        beta1 = np.array([_beta1(b) for b in block.tolist()])[:, None]
        h = KINETIC_COEFF - 3.0 * block[:, None] * x**2 + beta1 * x**3
        yield np.array([1.0, -1.0, -1.0]) * h, lambda i: (float(block[i[0]]), _CUBIC_CHECKS[i[1]]), 0


_MARGINS = {
    "lemma3": _lemma3_margins,
    "lemma4": _lemma4_margins,
    "cubic-signs": _cubic_sign_margins,
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
    the smallest N; for cubic-signs the first check) at the first beta that
    attains it.
    """
    if lemma not in _MARGINS:
        raise DomainError(f"unknown lemma id {lemma!r}")
    min_margin, witness, out_of_hypothesis = math.inf, (), 0
    for margins, witness_at, outside in _MARGINS[lemma](grid):
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
