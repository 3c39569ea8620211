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
params       validated system/medium parameter sets, JSON config I/O
coherences   steady-state coherence solve and closed-form coefficients
response     susceptibilities and chirality coefficients, reuse_betas
doppler      thermal (Maxwell-Boltzmann) velocity averaging
optics       cold or hot spectrum, refractive/group index, delays,
             crossover, calibration, first-order dispersion data
pulse        Gaussian pulse spectra, propagation, metrics
presets      named parameter sets for the documented scenarios
cli          command-line front end (`chiralight`)
"""

from .coherences import (CoherenceCoefficients, DenominatorTerms,
                         ShiftedDetunings, closed_form_betas,
                         denominator_terms, shift_detunings, solve_steady_state,
                         steady_betas)
from .errors import ChiralightError, ConfigurationError, NumericalError
from .optics import (DispersionPoint, calibrate_coupling, delay_table,
                     dispersion_coefficients, group_index_at,
                     group_index_curve, refractive_index, spectrum,
                     superluminal_crossover)
from .params import (MediumParams, SystemParams, ValidatedConfig,
                     derived_couplings, load_config, validate, with_overrides)
from .response import OpticalResponse, response_at
from .doppler import doppler_average, hot_response
from .pulse import (PulseSpec, PulseTrace, propagate_analytic,
                    propagate_numeric, pulse_metrics)

__version__ = "0.1.0"

__all__ = [
    "ChiralightError", "ConfigurationError", "NumericalError",
    "SystemParams", "MediumParams", "ValidatedConfig", "validate",
    "derived_couplings", "load_config", "with_overrides",
    "ShiftedDetunings", "DenominatorTerms", "CoherenceCoefficients",
    "shift_detunings", "denominator_terms", "solve_steady_state",
    "steady_betas", "closed_form_betas",
    "OpticalResponse", "response_at", "spectrum",
    "doppler_average", "hot_response",
    "DispersionPoint", "refractive_index", "group_index_curve", "group_index_at",
    "delay_table", "superluminal_crossover", "calibrate_coupling",
    "dispersion_coefficients",
    "PulseSpec", "PulseTrace", "propagate_analytic", "propagate_numeric",
    "pulse_metrics",
    "__version__",
]
