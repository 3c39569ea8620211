"""Macroscopic optical response from the microscopic coherences.

Eliminating the magnetization from the coupled polarization /
magnetization relations gives, in dimensionless coupling form
(kappa_e electric, kappa_m = kappa_e*r_mu^2 magnetic,
kappa_x = kappa_e*r_mu cross),

    chi_m  = kappa_m*beta_BB / (1 - kappa_m*beta_BB)
    xi_EH  = kappa_x*beta_EB / (1 - kappa_m*beta_BB)
    xi_HE  = kappa_x*beta_BE / (1 - kappa_m*beta_BB)
    chi_e  = kappa_e*beta_EE
             + kappa_x^2*beta_EB*beta_BE / (1 - kappa_m*beta_BB)

Susceptibilities are reported in units where kappa_e = 1 unless the
coupling has been calibrated.  The betas do not depend on kappa_e, so
a root search over it solves each (system, kv, delta_p) input once
inside :func:`reuse_betas`.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np

from . import coherences
from .errors import CouplingOverflow, DegenerateMagnetic
from .params import MediumParams, SystemParams, ValidatedConfig, derived_couplings

# |1 - kappa_m*beta_BB| below this is treated as a degenerate
# magnetization feedback (the elimination step divides by it).
DEGENERATE_TOL = 1.0e-9

# Beta coefficients by input key while a reuse_betas() scope is open in
# this thread or task, None outside every scope.
_memo = contextvars.ContextVar("chiralight_betas_memo", default=None)


@dataclass(frozen=True)
class OpticalResponse:
    """chi_e, chi_m, xi_eh, xi_he at one (or an array of) detuning."""

    chi_e: object
    chi_m: object
    xi_eh: object
    xi_he: object

    def components(self):
        return (self.chi_e, self.chi_m, self.xi_eh, self.xi_he)


def response_from_betas(b: coherences.CoherenceCoefficients,
                        medium: MediumParams) -> OpticalResponse:
    """Assemble the four response functions from beta coefficients,
    with the couplings of ``params.derived_couplings(medium)``."""
    k = derived_couplings(medium)
    kappa_e, kappa_m, kappa_x = k["kappa_e"], k["kappa_m"], k["kappa_x"]
    try:
        kappa_x2 = kappa_x ** 2
    except OverflowError:
        raise CouplingOverflow(f"kappa_x^2 overflows at kappa_e = {kappa_e:g}") from None
    den = 1.0 - kappa_m * np.asarray(b.beta_bb)
    if np.any(np.abs(den) < DEGENERATE_TOL):
        raise DegenerateMagnetic(
            "magnetization feedback denominator |1 - kappa_m*beta_BB| "
            f"below {DEGENERATE_TOL:g}")
    chi_m = kappa_m * np.asarray(b.beta_bb) / den
    xi_eh = kappa_x * np.asarray(b.beta_eb) / den
    xi_he = kappa_x * np.asarray(b.beta_be) / den
    chi_e = (kappa_e * np.asarray(b.beta_ee)
             + kappa_x2 * np.asarray(b.beta_eb) * np.asarray(b.beta_be) / den)
    return OpticalResponse(chi_e=chi_e, chi_m=chi_m, xi_eh=xi_eh, xi_he=xi_he)


@contextlib.contextmanager
def reuse_betas():
    """Scope in which response assembly reuses solved beta coefficients.

    Each distinct (system, kv, delta_p) input is solved once by
    ``coherences.steady_betas``; a repeat returns the same coefficient
    object, so results are bit-identical to solving again.  Each scope
    has its own memo, dropped when the scope exits.
    """
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def _input_key(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def _betas_at(s: SystemParams, kv, delta_p) -> coherences.CoherenceCoefficients:
    """steady_betas at the raw inputs, memoised inside reuse_betas()."""
    memo = _memo.get()
    if memo is None:
        return coherences.steady_betas(s, coherences.shift_detunings(s, kv, delta_p))
    key = (s, _input_key(kv), _input_key(delta_p))
    betas = memo.get(key)
    if betas is None:
        betas = coherences.steady_betas(s, coherences.shift_detunings(s, kv, delta_p))
        memo[key] = betas
    return betas


def response_at(cfg: ValidatedConfig, kv, delta_p) -> OpticalResponse:
    """Single-velocity response; broadcasts over kv and delta_p arrays.

    Inside :func:`reuse_betas` the betas of a repeated
    (system, kv, delta_p) input are reused rather than solved again.
    """
    return response_from_betas(_betas_at(cfg.system, kv, delta_p), cfg.medium)
