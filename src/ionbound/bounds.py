"""Closed-form ionization bound calculators, the derived constant chain, and
the implicit particle-count bound.

All calculators are total on their stated domains and deterministic, and the
module is pure Python: a bounds table imports neither numpy nor
``dataclasses``.  ``bound_table`` builds every row of the table the CLI
writes, from one ``BoundInputs``, an immutable named tuple that checks its
fields whenever one is built; ``bound_row`` is its one-charge view.  The
implicit bound (``implicit_N``) is solved row by row by a Newton iteration on
a convex function, to within a few ulps of the root.  The grid verifiers of
the supporting inequalities live in ``lemmas``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import DEFAULT_BETA_LOWER, MODELS
from .errors import Checked, DomainError, IonboundError

# Kinetic-correction coefficient of the exclusion lemma, conservative by
# construction relative to the exact constant chain below.
KINETIC_COEFF = 0.68


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class PhysicalConstants(NamedTuple):
    """The kinetic/radial constant chain and its two derived coefficients."""

    L: float
    A: float
    K: float
    C1: float
    c_radius: float
    c_kinetic: float


class _BoundFields(NamedTuple):
    """The fields of ``BoundInputs`` and their defaults."""

    model: str = "nonrel"
    B: float = 0.0
    beta_lower: float = DEFAULT_BETA_LOWER
    coeff: float = 1.22
    C_universal: float = 1.0
    C_kappa: float = 1.0
    C_2: float = 1.0


class BoundInputs(Checked, _BoundFields):
    """Model parameters that every row of a bound table shares; each
    calculator takes the charge Z as its own argument.

    The universal constants C_universal, C_kappa and C_2 have no derived
    values; the defaults of 1.0 are placeholders the caller should override.
    """

    __slots__ = ()

    def _check(self):
        if not all(map(math.isfinite, self[1:])):  # every field but model
            raise DomainError("bound inputs must be finite")
        if self.model not in MODELS:
            raise DomainError(f"unknown model {self.model!r}")
        if self.B < 0:
            raise DomainError("B must be non-negative")
        if not 0.0 < self.beta_lower < 1.0:
            raise DomainError("beta_lower must lie in (0, 1)")
        # tolerance admits the exact boundary coeff = 1/beta_lower in floats
        if self.coeff * self.beta_lower < 1.0 - 1e-12:
            raise DomainError("coeff must be at least 1/beta_lower")
        if min(self.C_universal, self.C_kappa, self.C_2) <= 0:
            raise DomainError("universal constants must be positive")


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
    exceeds 0.553, the paper's rounded radius constant; c_kinetic = (3/8) /
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


# ---------------------------------------------------------------------------
# bound calculators
# ---------------------------------------------------------------------------

def _beta1(beta: float) -> float:
    return 3.0 * (beta / 6.0) ** (1.0 / 3.0)


# Newton steps per row, a safety net: the iteration is monotone (see
# implicit_bound), and charges 1e-300 to 1e300 and the 1:118:0.01 table take
# at most 7 at beta from 1e-300 to 1 - 2^-52.
_NEWTON_CAP = 100


def implicit_bound(z, beta: float) -> list[float]:
    """Implicit particle-count bound for every charge of ``z``: the root N of
    F(N) = N (beta - beta1 N^(-2/3)) / (1 + 0.68 N^(-2/3)) = Z, to within a few ulps.

    With s = N^(1/3) and c = 0.68, F''(N) = curve (5c + s^2) / (3 s (c + s^2)^3),
    and curve > 0, so F is strictly convex on N > 0.  F tends to 0 from below
    as N -> 0, so F >= Z > 0 exactly on [root, inf).  Each row starts at
    2 max(2, Z/beta) and doubles until F exceeds Z; from there, by convexity,
    Newton's method falls monotonically to the root and never leaves [root,
    start].  The row ends at a step below 1e-9 relative (convergence is
    quadratic, so that point is good to rounding); a start that overflowed to
    inf gives an infinite step, and the row stays inf.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("beta_lower must lie in (0, 1)")
    beta1 = _beta1(beta)
    # with u = N^(-2/3), d = 1 + 0.68 u and a = (beta - beta1 u) / d, the left
    # side is N a and its slope is a + curve u / d^2
    curve = (2.0 / 3.0) * (beta1 + KINETIC_COEFF * beta)
    roots = []
    for charge in map(float, z):
        if not 0.0 < charge < math.inf:
            raise DomainError("Z must be positive and finite")
        x = 2.0 * max(2.0, charge / beta)
        while True:  # ends by x = inf at the latest, where the left side is inf
            u = x ** (-2.0 / 3.0)
            d = 1.0 + KINETIC_COEFF * u
            if x * (beta - beta1 * u) / d > charge:
                break
            x *= 2.0
        for _ in range(_NEWTON_CAP):  # each step starts from the u and d of its x
            a = (beta - beta1 * u) / d
            step = (x * a - charge) / (a + curve * u / (d * d))
            if not math.isfinite(step):  # x = inf
                break
            x -= step
            if abs(step) <= 1e-9 * x:
                break
            u = x ** (-2.0 / 3.0)
            d = 1.0 + KINETIC_COEFF * u
        roots.append(x)
    return roots


def _check_charge(z: float) -> None:
    if not (math.isfinite(z) and z > 0):
        raise DomainError("Z must be positive and finite")


def bound_table(z, inputs: BoundInputs) -> list[list]:
    """One row [Z, lieb, main, implicit_N, model_extra] per charge of ``z``:
    the classical bound 2Z+1, the closed form coeff*Z + 3 Z^(1/3), the root of
    ``implicit_bound``, and the model's own bound ("" for nonrel, an empty CSV
    cell).  A cell that overflows to inf, which is not JSON, raises DomainError.
    """
    rows = []
    for charge, implicit_n in zip(z, implicit_bound(z, inputs.beta_lower)):
        extra = ""
        if inputs.model == "magnetic":
            extra = magnetic_bound(charge, inputs)
        elif inputs.model != "nonrel":
            extra = relativistic_or_bosonic_bound(charge, inputs)
        lieb, main = 2.0 * charge + 1.0, inputs.coeff * charge + 3.0 * charge ** (1.0 / 3.0)
        if not (math.isfinite(lieb) and math.isfinite(main) and math.isfinite(implicit_n)
                and (extra == "" or math.isfinite(extra))):
            raise DomainError(f"the bounds at Z = {charge:g} overflow the floats")
        rows.append([charge, lieb, main, implicit_n, extra])
    return rows


def bound_row(z: float, inputs: BoundInputs) -> BoundRow:
    """The (lieb, main, implicit_N) cells of ``bound_table``'s row at charge ``z``."""
    return BoundRow(*bound_table([z], inputs)[0][1:4])


def _field_ratio(b: float, z: float, power: int) -> float:
    """B / Z^power, also where Z^power leaves the floats: where it overflows,
    Z is divided out one factor at a time, and where it underflows to 0 the
    ratio is inf (0 at B = 0)."""
    try:
        scale = z**power
    except OverflowError:
        for _ in range(power):
            b /= z
        return b
    if scale == 0.0:
        return math.inf if b else 0.0
    return b / scale


def magnetic_bound(z: float, inputs: BoundInputs) -> float:
    """Particle-count bound at charge ``z`` for atoms in a homogeneous magnetic field.

    The bound is closed except for the universal constant C_universal; where
    B / Z^3 is 0 (B = 0, or underflow) the field term is its limit 0, and
    the logarithm is never evaluated.  Where Z^3 underflows and B > 0, B / Z^3
    and the bound are inf.
    """
    _check_charge(z)
    if inputs.model != "magnetic":
        raise DomainError("magnetic_bound applies to the magnetic model")
    t = _field_ratio(inputs.B, z, 3)
    if t == 0.0:  # B = 0, or B / Z^3 below the smallest float
        field_term = 0.0
    else:
        field_term = min(
            0.42 * t**0.4, inputs.C_universal * (1.0 + math.log(t) ** 2)
        )
    base = inputs.coeff * z + 3.0 * z ** (1.0 / 3.0)
    return base * (1.0 + 11.8 * z ** (-2.0 / 3.0) + field_term)


def relativistic_or_bosonic_bound(z: float, inputs: BoundInputs) -> float:
    """Particle-count bound at charge ``z`` for the pseudo-relativistic and bosonic models.

    The relativistic bound assumes the paper's hypothesis κ < 2/π on the
    coupling κ = Zα (α the fine-structure constant); C_kappa is its constant.
    """
    _check_charge(z)
    if inputs.model == "relativistic":
        return inputs.coeff * z + inputs.C_kappa * z ** (1.0 / 3.0)
    if inputs.model == "bosonic":
        t = _field_ratio(inputs.B, z, 2)
        if t == 0.0:  # B = 0, or B / Z^2 below the smallest float
            field_term = 1.0
        else:
            field_term = min(1.0 + 4.0 * t, inputs.C_2 * math.log(t) ** 2)
        return (z / inputs.beta_lower + 3.0 * z ** (1.0 / 3.0)) * (1.0 + field_term)
    raise DomainError("applies to the relativistic and bosonic models")


def crossover_z(inputs: BoundInputs) -> int:
    """Smallest integer charge where coeff*Z + 3 Z^(1/3) beats 2Z + 1.

    With t = Z^(1/3) and a = 2 - coeff the inequality reads a t^3 - 3t + 1 > 0.
    That cubic is convex for t > 0 and negative at t = 1 (a < 2), so for Z >= 1
    it holds exactly from one charge on.  Doubling and then bisection find that
    charge with the integer test 27 Z < (a Z + 1)^3, exact in the rational a.
    """
    if inputs.coeff >= 2.0:
        raise IonboundError(f"coeff = {inputs.coeff!r} >= 2 never beats 2Z + 1")
    m, q = inputs.coeff.as_integer_ratio()
    p = 2 * q - m  # a = p / q exactly

    def beats(z: int) -> bool:
        return 27 * z * q**3 < (p * z + q) ** 3

    lo, hi = 1, 2  # not beats(1), since a < 2
    while not beats(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if beats(mid) else (mid, hi)
    return hi
