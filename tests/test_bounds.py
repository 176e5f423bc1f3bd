import math

import numpy as np
import pytest

from ionbound.bounds import (
    BoundInputs,
    LemmaGrid,
    bound_row,
    crossover_z,
    derived_constants,
    ionization_lemma_margin,
    lemma4_threshold,
    magnetic_bound,
    mean_radius_lower,
    relativistic_or_bosonic_bound,
    verify_lemma,
)
from ionbound.bounds import _implicit_lhs, _lemma4_margin
from ionbound.errors import (
    DomainError,
    KappaDomainError,
    MissingEnergyGapError,
    NoCrossoverError,
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


def test_mean_radius_examples():
    assert mean_radius_lower(1, 1.0) == pytest.approx(0.553)
    assert mean_radius_lower(8, 2.0) == pytest.approx(1.106)
    assert mean_radius_lower(1000, 10.0) == pytest.approx(5.53)
    with pytest.raises(DomainError):
        mean_radius_lower(0, 1.0)


# ---------------------------------------------------------------------------
# bound_row
# ---------------------------------------------------------------------------

def test_bound_row_z6_beats_classical():
    row = bound_row(BoundInputs(Z=6.0))
    assert row.lieb == 13.0
    assert row.main == pytest.approx(1.22 * 6 + 3 * 6 ** (1 / 3), rel=1e-14)
    assert row.main < row.lieb


def test_bound_row_z1_classical_wins():
    row = bound_row(BoundInputs(Z=1.0))
    assert row.main == pytest.approx(4.22, rel=1e-14)
    assert row.main > row.lieb == 3.0


def test_implicit_bound_against_grid_scan():
    row = bound_row(BoundInputs(Z=10.0))
    grid = np.arange(2.0, 40.0, 1e-4)
    crossing = grid[np.nonzero(_implicit_lhs(grid, 0.8218) >= 10.0)[0][0]]
    assert abs(row.implicit_n - crossing) <= 1e-4


def test_implicit_bound_is_a_root():
    for z in (0.5, 3.0, 42.0, 118.0):
        row = bound_row(BoundInputs(Z=z))
        assert float(_implicit_lhs(row.implicit_n, 0.8218)) == pytest.approx(
            z, rel=1e-7
        )


def test_main_dominates_implicit_for_z_at_least_4():
    for z in range(4, 121):
        row = bound_row(BoundInputs(Z=float(z)))
        assert row.main >= row.implicit_n - 1e-6, f"Z={z}"


def test_main_vs_implicit_small_z_counterexamples():
    """For Z in {1, 2, 3} the implicit bound exceeds N/Z = 7/3, outside the
    domain where the closed form provably dominates, and indeed it loses."""
    for z in (1.0, 2.0, 3.0):
        row = bound_row(BoundInputs(Z=z))
        assert row.main < row.implicit_n, f"Z={z}"


def test_main_bound_monotone_and_asymptotic():
    zs = np.geomspace(0.5, 1e8, 300)
    mains = [bound_row(BoundInputs(Z=float(z))).main for z in zs]
    assert all(b > a for a, b in zip(mains, mains[1:]))
    assert mains[-1] / zs[-1] == pytest.approx(1.22, abs=1e-3)


# ---------------------------------------------------------------------------
# exclusion-lemma margin
# ---------------------------------------------------------------------------

def test_margin_examples():
    assert ionization_lemma_margin(2, 1.0, 0.5) == pytest.approx(
        1 + 0.68 * 2 ** (-2 / 3) - 0.5, rel=1e-14
    )
    assert ionization_lemma_margin(2, 0.1, 0.5) < 0


def test_margin_linear_increasing_in_z():
    margins = [ionization_lemma_margin(4, z, 0.6) for z in (1.0, 2.0, 3.0)]
    assert margins[1] - margins[0] == pytest.approx(margins[2] - margins[1], rel=1e-12)
    assert margins[0] < margins[1] < margins[2]


# ---------------------------------------------------------------------------
# magnetic, relativistic, bosonic bounds
# ---------------------------------------------------------------------------

def test_magnetic_homogeneous_at_field_z_cubed():
    z = 10.0
    value = magnetic_bound(
        BoundInputs(Z=z, model="magnetic-homogeneous", B=z**3, C_universal=1.0)
    )
    base = 1.22 * z + 3 * z ** (1 / 3)
    assert value == pytest.approx(base * (1 + 11.8 * z ** (-2 / 3) + 0.42), rel=1e-12)


def test_magnetic_homogeneous_zero_field():
    z = 100.0
    value = magnetic_bound(BoundInputs(Z=z, model="magnetic-homogeneous", B=0.0))
    base = 1.22 * z + 3 * z ** (1 / 3)
    assert value == pytest.approx(base * (1 + 11.8 * z ** (-2 / 3)), rel=1e-14)


def test_magnetic_ratio_sweep_approaches_coeff():
    ratios = []
    for z in np.geomspace(1e2, 1e8, 13):
        inputs = BoundInputs(Z=float(z), model="magnetic-homogeneous", B=float(z**2.5))
        ratios.append(magnetic_bound(inputs) / z)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1.24


def test_magnetic_monotone_in_field():
    z = 5.0
    fields = np.geomspace(1e-3, 1e5, 60)
    vals = [
        magnetic_bound(BoundInputs(Z=z, model="magnetic-homogeneous", B=float(b), C_universal=0.42))
        for b in fields
    ]
    assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))


def test_magnetic_general_needs_gap():
    inputs = BoundInputs(Z=3.0, model="magnetic-general", k=2.0, n_c=5.0)
    value = magnetic_bound(inputs, energy_gap=9.0)
    base = 1.22 * 3 + 3 * 3 ** (1 / 3)
    assert value == pytest.approx(base * (1 + 9.0 / (5.0 * 9.0 * 1.0)), rel=1e-12)
    with pytest.raises(MissingEnergyGapError):
        magnetic_bound(BoundInputs(Z=3.0, model="magnetic-general"))


def test_relativistic_example():
    value = relativistic_or_bosonic_bound(
        BoundInputs(Z=50.0, model="relativistic", C_kappa=3.0)
    )
    assert value == pytest.approx(1.22 * 50 + 3 * 50 ** (1 / 3), rel=1e-12)
    assert value == pytest.approx(72.05, abs=5e-3)


def test_relativistic_kappa_domain():
    with pytest.raises(KappaDomainError):
        relativistic_or_bosonic_bound(
            BoundInputs(Z=50.0, model="relativistic", kappa=0.7)
        )


def test_bosonic_weak_field_limit():
    ratios = [
        relativistic_or_bosonic_bound(
            BoundInputs(Z=float(z), model="bosonic-magnetic", B=1.0)
        )
        / z
        for z in (1e2, 1e4, 1e6)
    ]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(2 / 0.8218, abs=1e-3)
    assert ratios[-1] <= 2.44


def test_bound_inputs_validation():
    with pytest.raises(DomainError):
        BoundInputs(Z=-1.0)
    with pytest.raises(DomainError):
        BoundInputs(Z=1.0, model="bogus")
    with pytest.raises(DomainError):
        BoundInputs(Z=1.0, coeff=1.0)  # below 1/beta_lower
    BoundInputs(Z=1.0, coeff=1 / 0.8218)  # exact boundary admitted
    for bad in (
        dict(Z=math.nan),
        dict(Z=math.inf),
        dict(Z=1.0, coeff=math.nan),
        dict(Z=1.0, B=math.inf),
        dict(Z=1.0, beta_lower=math.nan),
        dict(Z=1.0, C_2=math.nan),
        dict(Z=1.0, n_c=math.inf),
    ):
        with pytest.raises(DomainError):
            BoundInputs(**bad)


# ---------------------------------------------------------------------------
# crossover
# ---------------------------------------------------------------------------

def test_crossover_default_coeff():
    assert crossover_z(BoundInputs(Z=1.0)) == 6
    # one step before the crossover the classical bound still wins
    assert 1.22 * 5 + 3 * 5 ** (1 / 3) > 11


def test_crossover_smaller_coeff_not_later():
    assert crossover_z(BoundInputs(Z=1.0, coeff=1 / 0.8218)) <= 6


def test_crossover_none_below_cap():
    with pytest.raises(NoCrossoverError):
        crossover_z(BoundInputs(Z=1.0, beta_lower=0.5, coeff=2.0))


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
    with pytest.raises(DomainError):
        LemmaGrid(ratio_range=(0.1, 7 / 3))  # hypothesis needs N/Z < 7/3
    with pytest.raises(DomainError):
        verify_lemma("bogus")
    for bad in (
        dict(beta_range=(math.nan, math.nan)),
        dict(beta_range=(0.9, math.inf)),
        dict(z_range=(0.5, math.inf)),
        dict(ratio_range=(math.nan, 2.0)),
    ):
        with pytest.raises(DomainError):
            LemmaGrid(**bad)


def test_lemma_reports_deterministic():
    a = verify_lemma("lemma3", LemmaGrid())
    b = verify_lemma("lemma3", LemmaGrid())
    assert a == b
