"""Chiral optical response of a four-level double-lambda atomic medium.

The medium couples a weak electric probe and a magnetic microwave
drive through a closed interaction loop, so its linear response
carries, besides the electric and magnetic susceptibilities, two
cross (chirality) coefficients.  This package computes those four
response functions from the steady-state coherences, the resulting
complex refractive index and group index (slow and fast light), the
Doppler-broadened versions of all of the above, and the analytic and
numeric propagation of Gaussian probe pulses through a cell of the
medium.

Layout
------
Each module imports only those listed above it, at module level.
errors       named configuration and numerical errors
params       validated system, medium and pulse parameters, config I/O
coherences   steady-state coherence solve and closed-form coefficients
response     susceptibilities and chirality coefficients, reuse_betas
doppler      thermal (Maxwell-Boltzmann) velocity averaging
optics       cold or hot spectrum, refractive/group index, delays,
             crossover, calibration, first-order dispersion data
pulse        Gaussian pulse spectra, propagation, metrics
presets      named parameter sets for the documented scenarios
cli          command-line front end (`chiralight`)

One exception, for start-up cost: cli's computing commands build every
config and pulse spec they run, then import optics and pulse (and
numpy) in their own bodies, so ``--help``, ``preset-dump`` and the
configuration errors (but a root search's --tol and first bracket end)
run without them.  For the same reason, re-exports load on first access.
"""

import importlib

__version__ = "0.1.0"

# every re-exported name and the module that defines it
_EXPORTS = {name: module for module, names in (
    ("errors", "ChiralightError ConfigurationError NumericalError"),
    ("params", "SystemParams MediumParams PulseSpec ValidatedConfig validate "
               "derived_couplings load_config with_overrides"),
    ("coherences", "ShiftedDetunings CoherenceCoefficients "
                   "shift_detunings denominator_terms solve_steady_state "
                   "steady_betas closed_form_betas"),
    ("response", "OpticalResponse response_at"),
    ("doppler", "doppler_average hot_response"),
    ("optics", "spectrum DispersionPoint refractive_index group_index_curve "
               "group_index_at delay_table superluminal_crossover "
               "calibrate_coupling dispersion_coefficients"),
    ("pulse", "PulseTrace propagate_analytic propagate_numeric pulse_metrics"),
) for name in names.split()}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    """Import the defining module of a re-exported name on first access."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
