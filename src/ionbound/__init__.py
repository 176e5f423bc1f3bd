"""Numerical bracketing of point-configuration ratio constants and the
ionization bound tables built on them.

The public names below are loaded from their layer on first access, so
importing the package (or only the CLI) imports no layer and no numpy.
"""

import importlib

__version__ = "0.1.0"

# g_max = 0.8218066... rounded down: the lower bracket the bounds use by
# default, so their coefficient must be at least 1/0.8218.
DEFAULT_BETA_LOWER = 0.8218

_LAYERS = {
    "alpha": ("AlphaEstimate", "OptimizerSettings", "alpha_sandwich", "estimate_alpha",
              "local_minimize", "normalize_config"),
    "beta": ("BetaBracket", "BetaSettings", "RadialMeasure", "g_of_lambda", "maximize_g",
             "minimize_radial_ratio", "radial_ratio", "w_maximin"),
    "bounds": ("BoundInputs", "LemmaGrid", "LemmaReport", "PhysicalConstants", "bound_row",
               "crossover_z", "derived_constants", "implicit_bound", "ionization_lemma_margin",
               "magnetic_bound", "mean_radius_lower", "relativistic_or_bosonic_bound",
               "verify_lemma"),
    "kernels": ("ParticleConfiguration", "ProbeReport", "RatioValue", "inequality_probe",
                "pair_energy", "radial_kernel_triple", "ratio_gradient", "ratio_value",
                "sphere_average_dipole", "sphere_average_inverse_distance", "w_lambda_reduced"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = ["__version__", *sorted(_LAYER_OF)]


def __getattr__(name):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
