"""Numerical bracketing of point-configuration ratio constants and the
ionization bound tables built on them.

The public names below are loaded from their layer on first access, so
importing the package (or only the CLI) imports no layer and no numpy.  The
CLI binds the same hook to the same table.
"""

import importlib

__version__ = "0.1.0"

# g_max = 0.8218066... rounded down: the lower bracket the bounds use by
# default, so their coefficient must be at least 1/0.8218.
DEFAULT_BETA_LOWER = 0.8218

# the bounds models; here so that the CLI can list them without loading a layer
MODELS = ("nonrel", "magnetic", "relativistic", "bosonic")

_LAYERS = {
    "alpha": ("AlphaEstimate", "MAX_POINT_COUNT", "OptimizerSettings", "alpha_sandwich",
              "estimate_alpha", "local_minimize"),
    "beta": ("BetaBracket", "BetaSettings", "RadialMeasure", "bracket_detail", "default_nodes",
             "g_of_lambda", "maximize_g", "minimize_radial_ratio", "radial_ratio", "w_maximin"),
    "bounds": ("BoundInputs", "PhysicalConstants", "bound_row", "crossover_z",
               "derived_constants", "implicit_bound", "magnetic_bound",
               "relativistic_or_bosonic_bound"),
    "lemmas": ("LemmaGrid", "LemmaReport", "verify_lemma"),
    "plots": ("Band", "Panel", "Series", "render_svg"),
    "kernels": ("ParticleConfiguration", "RatioValue", "radial_kernel_triple", "ratio_gradient",
                "ratio_value", "sphere_average_dipole", "sphere_average_inverse_distance",
                "w_lambda_reduced"),
}

__all__ = ["__version__", *sorted(name for names in _LAYERS.values() for name in names)]


def _lazy_names(namespace: dict, layers: dict):
    """A module ``__getattr__`` that imports a name's layer on first use and
    caches the name in ``namespace``, where a caller may rebind it."""
    layer_of = {name: layer for layer, names in layers.items() for name in names}

    def __getattr__(name):
        if name not in layer_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__name__}.{layer_of[name]}"), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _lazy_names(globals(), _LAYERS)


def __dir__():
    return sorted({*globals(), *__all__})
