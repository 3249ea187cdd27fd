"""Numerical machinery for the quadratic (double dispersion) term of the
fixed-angle Born series: frequency chart, Ewald-sphere operators,
principal-value integration, radial counterexample potentials, and the
sharp-regularity bound calculators.

Exports load on first use, as do the submodules that hold them when read
as ``borndisp.<submodule>``: ``from borndisp import make_gbeta`` imports
``potentials`` and ``spectral`` and nothing else, so a program pays only for
the modules it calls."""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "analysis": ("DecayFit", "RefinementScan", "Verdict", "fit_decay", "gain_scan",
                 "lemma52_check"),
    "bounds": ("BoundReport", "alpha0", "alpha_j", "m_threshold", "thm_limits"),
    "dispersion": ("CutoffSpec", "DispersionSample", "PVParams", "b_theta2", "cutoff_chi",
                   "dispersion_batch", "principal_value_op", "q_full2_hat",
                   "spherical_op"),
    "geometry": ("Chart", "Direction", "NotInHalfSpace", "SphereRule", "chart",
                 "ewald_nodes", "in_cone", "in_half_space", "sphere_rule"),
    "potentials": ("GBetaSpec", "GridTooCoarseError", "Potential", "gaussian_potential",
                   "make_gbeta"),
    "spectral": ("Domain", "Field", "Grid", "RadialProfile", "TransformDirection",
                 "field_from_function", "fourier", "make_grid"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        # the import binds the submodule as this package's attribute
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _HOME.keys() | _EXPORTS.keys())
