import math
from fractions import Fraction

import numpy as np
import pytest

from ionbound import bounds
from ionbound.bounds import (
    KINETIC_COEFF,
    BoundInputs,
    _beta1,
    bound_row,
    bound_table,
    crossover_z,
    derived_constants,
    implicit_bound,
    magnetic_bound,
    relativistic_or_bosonic_bound,
)
from ionbound.errors import DomainError, IonboundError
from ionbound.lemmas import (
    _CUBIC_BLOCK,
    _CUBIC_CHECKS,
    _RATIO_RANGE,
    LemmaGrid,
    LemmaReport,
    _cubic_sign_margins,
    _lemma3_margins,
    _lemma4_margin,
    lemma4_threshold,
    verify_lemma,
)


# ---------------------------------------------------------------------------
# constant chain
# ---------------------------------------------------------------------------

def test_constant_chain_values():
    pc = derived_constants()
    assert pc.L == pytest.approx(0.01225, abs=1e-5)
    assert pc.C1 == pytest.approx(0.4271, abs=1e-4)
    assert pc.A == pytest.approx((3 / 2) ** (1 / 3), rel=1e-14)
    assert pc.c_radius > 0.553
    assert pc.c_kinetic < 0.68


def test_constant_chain_relations():
    pc = derived_constants()
    assert pc.L == pytest.approx(1 / (math.pi * 3**1.5 * 5), rel=1e-15)
    assert pc.K == pytest.approx(2 ** (-2 / 3) * 0.3 * (2 / (5 * pc.L)) ** (2 / 3), rel=1e-14)
    assert pc.c_radius == pytest.approx(pc.C1 * math.sqrt(pc.K / pc.A), rel=1e-14)
    assert pc.c_kinetic == pytest.approx(0.375 / pc.c_radius, rel=1e-14)


# ---------------------------------------------------------------------------
# bound_row
# ---------------------------------------------------------------------------

def test_bound_row_z6_beats_classical():
    row = bound_row(6.0, BoundInputs())
    assert row.lieb == 13.0
    assert row.main == pytest.approx(1.22 * 6 + 3 * 6 ** (1 / 3), rel=1e-14)
    assert row.main < row.lieb


def test_bound_row_z1_classical_wins():
    row = bound_row(1.0, BoundInputs())
    assert row.main == pytest.approx(4.22, rel=1e-14)
    assert row.main > row.lieb == 3.0


def _implicit_lhs(n, beta: float):
    """N (beta - beta1 N^(-2/3)) / (1 + 0.68 N^(-2/3)), on floats or arrays."""
    u = n ** (-2.0 / 3.0)
    return n * (beta - _beta1(beta) * u) / (1.0 + KINETIC_COEFF * u)


def test_implicit_bound_against_grid_scan():
    row = bound_row(10.0, BoundInputs())
    grid = np.arange(2.0, 40.0, 1e-4)
    crossing = grid[np.nonzero(_implicit_lhs(grid, 0.8218) >= 10.0)[0][0]]
    assert abs(row.implicit_n - crossing) <= 1e-4


def test_implicit_bound_is_a_root():
    for z in (0.5, 3.0, 42.0, 118.0):
        row = bound_row(z, BoundInputs())
        assert float(_implicit_lhs(row.implicit_n, 0.8218)) == pytest.approx(
            z, rel=1e-7
        )


def _scalar_implicit_bound(z: float, beta: float) -> float:
    """Oracle: the bisection to 1e-9 relative that implicit_bound ran before Newton."""
    lo = max(2.0, z / beta)
    hi = 2.0 * lo
    for _ in range(200):
        if _implicit_lhs(hi, beta) > z:
            break
        hi *= 2.0
    else:
        raise AssertionError(f"no bracket at Z={z}")
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if _implicit_lhs(mid, beta) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _implicit_charges(beta: float) -> list[float]:
    zs = [
        *np.geomspace(1e-3, 2.0 * beta, 60, endpoint=False),  # the lo = 2 clamp
        *(1.0 + i * 0.01 for i in range(2950, 3150)),  # a stretch of --z 1:118:0.01
        *np.geomspace(118.0, 1e6, 60),
        1e300,
    ]
    assert min(zs) / beta < 2.0
    return [float(z) for z in zs]


def _mp_excess(mpmath, n, z: float, beta: float):
    """The left side minus Z at n, in mpmath at its working precision."""
    n, b = mpmath.mpf(n), mpmath.mpf(beta)
    u = n ** (mpmath.mpf(-2) / 3)
    return n * (b - 3 * mpmath.cbrt(b / 6) * u) / (1 + mpmath.mpf(KINETIC_COEFF) * u) - z


@pytest.mark.parametrize("beta", [0.8218, 0.95])
def test_implicit_bound_is_within_4_ulps_of_the_root(beta):
    mpmath = pytest.importorskip("mpmath")

    def excess_sign(n: float, z: float) -> int:
        return int(mpmath.sign(_mp_excess(mpmath, n, z, beta)))

    zs = _implicit_charges(beta)
    roots = implicit_bound(zs, beta)
    assert type(roots) is list and all(math.isfinite(n) for n in roots)
    with mpmath.workdps(60):
        for z, n in zip(zs, roots):
            below, above = n, n
            for _ in range(4):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            assert (excess_sign(below, z), excess_sign(above, z)) == (-1, 1), z


@pytest.mark.parametrize("beta", [0.8218, 0.95])
def test_implicit_bound_is_within_1e_9_of_the_scalar_bisection(beta):
    zs = _implicit_charges(beta)
    for z, n in zip(zs, implicit_bound(np.array(zs), beta)):
        assert n == pytest.approx(_scalar_implicit_bound(z, beta), rel=1e-9, abs=0.0), z
    for z in (0.5, 30.5, 1e6):
        row = bound_row(z, BoundInputs(beta_lower=beta, coeff=1 / beta))
        assert row.implicit_n == implicit_bound([z], beta)[0]


def test_implicit_bound_at_a_tiny_beta_is_within_1e_12_of_an_mpmath_bisection():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for beta in (1e-300, 1e-200, 1e-100):
            zs = [1e-300, 1.0]
            for z, n in zip(zs, implicit_bound(zs, beta)):
                lo = hi = mpmath.mpf(2)
                while _mp_excess(mpmath, hi, z, beta) <= 0:
                    lo, hi = hi, 2 * hi
                for _ in range(80):  # geometric bisection of [hi / 2, hi]
                    mid = mpmath.sqrt(lo * hi)
                    lo, hi = (mid, hi) if _mp_excess(mpmath, mid, z, beta) < 0 else (lo, mid)
                assert n == pytest.approx(float(hi), rel=1e-12, abs=0.0), (z, beta)
    # where Z / beta overflows, the bracket starts at inf and the row gets inf
    assert implicit_bound([1e25], 1e-300) == [math.inf]


def test_implicit_bound_does_not_depend_on_the_newton_cap(monkeypatch):
    zs = [10.0 ** k for k in range(-300, 301, 25)] + [1.0 + 0.37 * i for i in range(318)]
    betas = (1e-300, 1e-100, 1e-10, 0.5, 0.8218, 1.0 - 2.0**-52)
    at_100 = [implicit_bound(zs, beta) for beta in betas]
    monkeypatch.setattr(bounds, "_NEWTON_CAP", 8)
    assert [implicit_bound(zs, beta) for beta in betas] == at_100


def test_implicit_bound_rejects_bad_inputs():
    for zs in ([1.0, 0.0], [1.0, -2.0], [math.nan], [1.0, math.inf]):
        with pytest.raises(DomainError):
            implicit_bound(zs, 0.8218)
    for beta in (0.0, 1.0, math.nan):
        with pytest.raises(DomainError):
            implicit_bound([1.0], beta)
    # a table row with a cell that overflows is refused with the CLI's message
    overflows = [
        ("1e+308", lambda: bound_table([1e308], BoundInputs())),
        ("1e+308", lambda: bound_row(1e308, BoundInputs())),
        ("0.001", lambda: bound_table([0.001], BoundInputs(model="magnetic", B=1e308))),
        ("1e-200", lambda: bound_table([1e-200], BoundInputs(model="magnetic", B=3.0))),
        ("1e-200", lambda: bound_table([1e-200], BoundInputs(model="bosonic", B=3.0))),
    ]
    for z, call in overflows:
        with pytest.raises(DomainError) as refused:
            call()
        assert str(refused.value) == f"the bounds at Z = {z} overflow the floats"


def test_main_dominates_implicit_for_z_at_least_4():
    for z in range(4, 121):
        row = bound_row(float(z), BoundInputs())
        assert row.main >= row.implicit_n - 1e-6, f"Z={z}"


def test_main_vs_implicit_small_z_counterexamples():
    """For Z in {1, 2, 3} the implicit bound exceeds N/Z = 7/3, outside the
    domain where the closed form provably dominates, and indeed it loses."""
    for z in (1.0, 2.0, 3.0):
        row = bound_row(z, BoundInputs())
        assert row.main < row.implicit_n, f"Z={z}"


def test_main_bound_monotone_and_asymptotic():
    zs = np.geomspace(0.5, 1e8, 300)
    mains = [bound_row(float(z), BoundInputs()).main for z in zs]
    assert all(b > a for a, b in zip(mains, mains[1:]))
    assert mains[-1] / zs[-1] == pytest.approx(1.22, abs=1e-3)


# ---------------------------------------------------------------------------
# magnetic, relativistic, bosonic bounds
# ---------------------------------------------------------------------------

def test_magnetic_homogeneous_at_field_z_cubed():
    z = 10.0
    value = magnetic_bound(z, BoundInputs(model="magnetic", B=z**3, C_universal=1.0))
    base = 1.22 * z + 3 * z ** (1 / 3)
    assert value == pytest.approx(base * (1 + 11.8 * z ** (-2 / 3) + 0.42), rel=1e-12)


def test_magnetic_homogeneous_zero_field():
    z = 100.0
    value = magnetic_bound(z, BoundInputs(model="magnetic", B=0.0))
    base = 1.22 * z + 3 * z ** (1 / 3)
    assert value == pytest.approx(base * (1 + 11.8 * z ** (-2 / 3)), rel=1e-14)


@pytest.mark.parametrize("model, z", [("magnetic", 1e103), ("bosonic", 1e155)])
def test_a_field_ratio_whose_power_of_z_overflows_gives_a_finite_row(model, z):
    # Z^3 (Z^2) overflows, while B / Z^3 (B / Z^2) is a subnormal near the zero-field limit
    row = bound_table([z], BoundInputs(model=model, B=3.0))[0]
    assert all(math.isfinite(cell) for cell in row)
    assert row[4] == pytest.approx(bound_table([z], BoundInputs(model=model, B=0.0))[0][4], rel=1e-15)


def test_a_zero_field_with_an_underflowing_power_of_z_is_the_zero_field_bound():
    z = 1e-200
    base = 1.22 * z + 3 * z ** (1 / 3)
    assert magnetic_bound(z, BoundInputs(model="magnetic")) == base * (1 + 11.8 * z ** (-2 / 3))
    bosonic = relativistic_or_bosonic_bound(z, BoundInputs(model="bosonic"))
    assert bosonic == (z / 0.8218 + 3 * z ** (1 / 3)) * 2.0


def test_magnetic_ratio_sweep_approaches_coeff():
    ratios = []
    for z in np.geomspace(1e2, 1e8, 13):
        inputs = BoundInputs(model="magnetic", B=float(z**2.5))
        ratios.append(magnetic_bound(float(z), inputs) / z)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1.24


def test_magnetic_monotone_in_field():
    z = 5.0
    fields = np.geomspace(1e-3, 1e5, 60)
    vals = [
        magnetic_bound(z, BoundInputs(model="magnetic", B=float(b), C_universal=0.42))
        for b in fields
    ]
    assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))


def test_relativistic_example():
    value = relativistic_or_bosonic_bound(50.0, BoundInputs(model="relativistic", C_kappa=3.0))
    assert value == pytest.approx(1.22 * 50 + 3 * 50 ** (1 / 3), rel=1e-12)
    assert value == pytest.approx(72.05, abs=5e-3)


def test_bosonic_weak_field_limit():
    ratios = [
        relativistic_or_bosonic_bound(float(z), BoundInputs(model="bosonic", B=1.0)) / z
        for z in (1e2, 1e4, 1e6)
    ]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(2 / 0.8218, abs=1e-3)
    assert ratios[-1] <= 2.44


def test_bound_inputs_validation():
    with pytest.raises(DomainError):
        BoundInputs(model="bogus")
    with pytest.raises(DomainError):
        BoundInputs(coeff=1.0)  # below 1/beta_lower
    BoundInputs(coeff=1 / 0.8218)  # exact boundary admitted
    for bad in (
        dict(coeff=math.nan),
        dict(B=math.inf),
        dict(B=-1.0),
        dict(beta_lower=math.nan),
        dict(C_2=math.nan),
    ):
        with pytest.raises(DomainError):
            BoundInputs(**bad)
    # a model's calculator rejects the inputs of another model
    with pytest.raises(DomainError, match="magnetic model"):
        magnetic_bound(1.0, BoundInputs())
    with pytest.raises(DomainError, match="relativistic and bosonic"):
        relativistic_or_bosonic_bound(1.0, BoundInputs(model="magnetic"))


def test_bound_inputs_are_immutable_and_every_copy_is_checked():
    inputs = BoundInputs(model="magnetic", B=2.0)
    assert inputs == BoundInputs("magnetic", 2.0) and inputs.C_2 == 1.0
    with pytest.raises(AttributeError):
        inputs.B = -1.0
    with pytest.raises(AttributeError):
        inputs.extra = 1.0
    assert inputs._replace(B=3.0) == BoundInputs(model="magnetic", B=3.0)
    with pytest.raises(DomainError, match="B must be non-negative"):
        inputs._replace(B=-1.0)
    with pytest.raises(DomainError, match="unknown model"):
        BoundInputs("bogus")


@pytest.mark.parametrize("z", [-1.0, 0.0, math.nan, math.inf])
def test_calculators_reject_a_bad_charge(z):
    calls = (
        lambda: bound_row(z, BoundInputs()),
        lambda: magnetic_bound(z, BoundInputs(model="magnetic", B=1.0)),
        lambda: relativistic_or_bosonic_bound(z, BoundInputs(model="relativistic")),
        lambda: relativistic_or_bosonic_bound(z, BoundInputs(model="bosonic", B=1.0)),
    )
    for call in calls:
        with pytest.raises(DomainError, match="Z must be positive"):
            call()


# ---------------------------------------------------------------------------
# crossover
# ---------------------------------------------------------------------------

def test_crossover_default_coeff():
    assert crossover_z(BoundInputs()) == 6
    # one step before the crossover the classical bound still wins
    assert 1.22 * 5 + 3 * 5 ** (1 / 3) > 11


def test_crossover_smaller_coeff_not_later():
    assert crossover_z(BoundInputs(coeff=1 / 0.8218)) <= 6


def test_crossover_matches_integer_scan():
    for coeff in np.linspace(1 / 0.99, 1.95, 40):
        coeff = float(coeff)
        beats = lambda z: coeff * z + 3.0 * z ** (1 / 3) < 2.0 * z + 1.0
        scan = next(z for z in range(1, 10**5) if beats(z))
        assert crossover_z(BoundInputs(beta_lower=0.99, coeff=coeff)) == scan, coeff


def test_crossover_near_coeff_two():
    """The crossover moves out like 3^(3/2) (2 - coeff)^(-3/2): near Z = 1.6e11 at 1.9999999."""
    for coeff in (1.9999999, 2 - 2**-20, 2 - 2**-40, math.nextafter(2, 0)):
        z = crossover_z(BoundInputs(coeff=coeff))
        assert z == pytest.approx(3**1.5 * (2 - coeff) ** -1.5, rel=1e-3), coeff
        a = 2 - Fraction(coeff)
        beats = lambda n: 27 * n < (a * n + 1) ** 3  # coeff n + 3 n^(1/3) < 2n + 1, exactly
        assert beats(z) and not beats(z - 1), coeff


def test_crossover_none_below_cap():
    with pytest.raises(IonboundError, match="never beats 2Z"):
        crossover_z(BoundInputs(beta_lower=0.5, coeff=2.0))


# ---------------------------------------------------------------------------
# lemma verifiers
# ---------------------------------------------------------------------------

def test_lemma3_grid_passes():
    grid = LemmaGrid(z_points=120, ratio_points=120)
    report = verify_lemma("lemma3", grid)
    assert report.passed
    assert report.min_margin > 0
    assert report.grid["z_points"] * report.grid["ratio_points"] >= 10**4
    z, n, beta = report.witness
    assert 0.5 <= z <= 120 and n / z <= 2.33 + 1e-9 and beta == 0.8218


def _lemma3_meshgrid(grid: LemmaGrid, beta: float):
    """Oracle: lemma3's margins from full (Z, N/Z) meshgrid copies, rebuilt at every beta."""
    zz, rr = np.meshgrid(grid.zs(), np.geomspace(*_RATIO_RANGE, grid.ratio_points), indexing="ij")
    nn = zz * rr
    u = nn ** (-2.0 / 3.0)
    denom = beta - _beta1(beta) * u
    branch2 = np.where(denom > 0, zz * (1.0 + KINETIC_COEFF * u) / np.where(denom > 0, denom, 1.0), np.inf)
    return (1.0 / beta) * zz + 3.0 * zz ** (1.0 / 3.0) - np.minimum(nn, branch2), zz, nn


def test_lemma3_matches_the_meshgrid_oracle_at_every_beta():
    # a non-square grid, so that a swap of the Z and N/Z axes cannot pass
    grid = LemmaGrid(z_points=37, ratio_points=53, beta_points=5, beta_range=(0.8218, 0.99))
    blocks = _lemma3_margins(grid)
    min_margin, witness = math.inf, ()
    for beta in map(float, grid.betas()):
        expected, zz, nn = _lemma3_meshgrid(grid, beta)
        margins, witness_at, outside = next(blocks)
        assert margins.shape == (37, 53) and outside == 0
        np.testing.assert_array_equal(margins, expected)
        i = np.unravel_index(int(np.argmin(expected)), expected.shape)
        assert witness_at(i) == (float(zz[i]), float(nn[i]), beta)
        if expected[i] < min_margin:
            min_margin, witness = float(expected[i]), witness_at(i)
    assert next(blocks, None) is None
    assert verify_lemma("lemma3", grid) == LemmaReport(
        lemma="lemma3", grid=grid.as_dict(), min_margin=min_margin, passed=min_margin > 0,
        witness=witness, out_of_hypothesis=0,
    )


def test_cubic_signs_at_reference_beta():
    report = verify_lemma("cubic-signs", LemmaGrid())
    assert report.passed
    beta = 0.8218
    beta1 = 3 * (beta / 6) ** (1 / 3)
    h = lambda x: 0.68 - 3 * beta * x**2 + beta1 * x**3
    assert h(0.0) == pytest.approx(0.68)
    assert h(beta ** (-1 / 3)) < 0
    assert h((7 / 3) ** (1 / 3)) < 0


def test_cubic_signs_across_beta_grid():
    report = verify_lemma(
        "cubic-signs", LemmaGrid(beta_points=10001, beta_range=(0.8218, 0.99))
    )
    assert report.passed
    assert report.min_margin > 0


def test_cubic_signs_across_block_boundaries_matches_a_per_beta_loop():
    grid = LemmaGrid(beta_points=150_001, beta_range=(0.8218, 0.99))
    assert grid.beta_points > 2 * _CUBIC_BLOCK
    min_margin, witness, rows = math.inf, (), []
    for beta in grid.betas().tolist():
        beta1 = _beta1(beta)
        h = [KINETIC_COEFF - 3.0 * beta * x**2 + beta1 * x**3
             for x in (0.0, beta ** (-1.0 / 3.0), (7.0 / 3.0) ** (1.0 / 3.0))]
        rows.append([h[0], -h[1], -h[2]])
        for check, margin in enumerate(rows[-1]):
            if margin < min_margin:
                min_margin, witness = margin, (beta, _CUBIC_CHECKS[check])
    report = verify_lemma("cubic-signs", grid)
    assert (report.min_margin, report.witness) == (min_margin, witness)
    # every beta lands in one block, in order, and its row names it as the witness
    margins, witness_betas = [], []
    for block, witness_at, outside in _cubic_sign_margins(grid):
        assert block.shape[0] <= _CUBIC_BLOCK and outside == 0
        margins.append(block.copy())
        witness_betas += [witness_at((row, 0))[0] for row in range(block.shape[0])]
    assert witness_betas == grid.betas().tolist()
    # numpy's x^2 and x^3 may differ from the Python floats' by an ulp; the terms stay below 6
    np.testing.assert_allclose(np.concatenate(margins), rows, rtol=0, atol=1e-14)


def test_lemma4_as_printed_has_integer_counterexamples():
    """With the hypothesis exponent exactly as printed (Z^(-2/3)), integer
    particle counts in small pockets violate the product inequality; the
    verifier must report them rather than pass."""
    assert float(lemma4_threshold(2.0, 0.8218)) == pytest.approx(
        2 / 0.8218 + 3 * 2 ** (-2 / 3), rel=1e-14
    )
    # N = 5, Z = 2 satisfies the printed hypothesis yet fails the inequality
    assert 5 >= lemma4_threshold(2.0, 0.8218)
    assert float(_lemma4_margin(5.0, 2.0, 0.8218)) < 0
    report = verify_lemma("lemma4", LemmaGrid())
    assert not report.passed
    assert report.min_margin < 0
    assert report.out_of_hypothesis == 0


def test_lemma4_real_n_failures_flagged_separately():
    report = verify_lemma("lemma4", LemmaGrid(real_n=True))
    assert report.out_of_hypothesis > 0
    # flagged points never affect the pass verdict, which reflects integer N only
    integer_only = verify_lemma("lemma4", LemmaGrid(real_n=False))
    assert report.passed == integer_only.passed
    assert report.min_margin == integer_only.min_margin


def _lemma4_per_charge(grid: LemmaGrid):
    """Oracle: lemma4 as one (beta, Z) pair at a time, before the broadcast."""
    min_margin, witness, out_of_hypothesis = math.inf, (), 0
    for beta in map(float, grid.betas()):
        for z in map(float, grid.zs()):
            threshold = float(lemma4_threshold(z, beta))
            first = math.ceil(threshold)
            ints = np.arange(first, first + grid.n_above, dtype=float)
            margins = _lemma4_margin(ints, z, beta)
            i = int(np.argmin(margins))
            if margins[i] < min_margin:
                min_margin, witness = float(margins[i]), (z, float(ints[i]), beta)
            reals = np.linspace(threshold, threshold + grid.n_above, 4 * grid.n_above + 1)
            out_of_hypothesis += int(
                np.sum((_lemma4_margin(reals, z, beta) <= 0) & (reals != np.round(reals)))
            )
    return min_margin, witness, out_of_hypothesis


@pytest.mark.parametrize("grid", [
    LemmaGrid(real_n=True),
    LemmaGrid(z_points=300, beta_points=3, beta_range=(0.8218, 0.95), n_above=7, real_n=True),
])
def test_lemma4_matches_per_charge_loop(grid):
    report = verify_lemma("lemma4", grid)
    assert (report.min_margin, report.witness, report.out_of_hypothesis) == _lemma4_per_charge(grid)


def test_lemma4_margin_positive_for_large_charges():
    """Away from the small pockets the printed inequality does hold."""
    for z in np.geomspace(20.0, 120.0, 25):
        threshold = float(lemma4_threshold(z, 0.8218))
        first = math.ceil(threshold)
        ints = np.arange(first, first + 32, dtype=float)
        assert np.all(_lemma4_margin(ints, z, 0.8218) > 0), f"Z={z}"


def test_lemma_grid_validation():
    with pytest.raises(DomainError):
        LemmaGrid(beta_range=(0.8, 0.9))
    # one beta point evaluates lo alone, and the echo says so
    assert LemmaGrid(beta_range=(0.8218, 0.99)).as_dict()["beta_range"] == [0.8218, 0.8218]
    with pytest.raises(DomainError):
        verify_lemma("bogus")
    for bad in (
        dict(beta_range=(math.nan, math.nan)),
        dict(beta_range=(0.9, math.inf)),
        dict(z_points=10**4, ratio_points=10**4),  # checked before any array is built
        dict(z_points=10**4, n_above=10**3),
        dict(beta_points=10**9),
    ):
        with pytest.raises(DomainError):
            LemmaGrid(**bad)


def test_lemma_grid_is_an_immutable_named_tuple_checked_on_every_copy():
    grid = LemmaGrid(z_points=40)
    assert grid == LemmaGrid(40) and grid._replace(z_points=120) == LemmaGrid()
    with pytest.raises(AttributeError):
        grid.z_points = 0
    with pytest.raises(AttributeError):
        grid.extra = 1
    with pytest.raises(DomainError, match="grid counts must be >= 1"):
        grid._replace(n_above=0)
    with pytest.raises(DomainError, match="beta grid values must be >= 0.8218"):
        grid._replace(beta_range=(0.8, 0.9))
    with pytest.raises(DomainError, match="beta range 0.9:0.85 needs lo <= hi < 1"):
        LemmaGrid(beta_range=(0.9, 0.85))
    with pytest.raises(DomainError, match="grid arrays must hold at most"):
        LemmaGrid._make((10**4, 10**4, 1, (0.8218, 0.8218), 24, False))


def test_lemma_reports_deterministic():
    a = verify_lemma("lemma3", LemmaGrid())
    b = verify_lemma("lemma3", LemmaGrid())
    assert a == b
