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
coupling has been calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coherences
from .errors import CouplingOverflow, DegenerateMagnetic
from .params import MediumParams, ValidatedConfig, derived_couplings

# |1 - kappa_m*beta_BB| below this is treated as a degenerate
# magnetization feedback (the elimination step divides by it).
DEGENERATE_TOL = 1.0e-9


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


def response_at(cfg: ValidatedConfig, kv, delta_p=None) -> OpticalResponse:
    """Single-velocity response; broadcasts over kv and delta_p arrays.

    Inside ``coherences.reuse_betas()`` the betas of a repeated
    (system, kv, delta_p) input are reused rather than solved again.
    """
    return response_from_betas(coherences._betas_at(cfg, kv, delta_p), cfg.medium)


def spectrum(cfg: ValidatedConfig, grid, mode: str = "cold") -> OpticalResponse:
    """Response on a detuning grid; fields are arrays ordered like the grid.

    mode "cold" evaluates at kv = 0; mode "hot" Doppler-averages at the
    medium's v_doppler.
    """
    grid = np.asarray(grid, dtype=float)
    if mode == "cold":
        return response_at(cfg, 0.0, delta_p=grid)
    if mode == "hot":
        from . import doppler  # deferred: doppler builds on this module
        return doppler.hot_response(cfg, grid)
    raise ValueError(f"mode must be 'cold' or 'hot', got {mode!r}")
