"""Physical and pulse parameters, unit conventions and derived couplings.

All frequencies (Rabi frequencies, detunings, decay rates, Doppler
width) are dimensionless, expressed in units of a common decay-rate
scale gamma; ``gamma_unit`` fixes that scale in SI angular frequency
(rad/s) and enters only when delays, velocities and pulse propagation
are converted to SI at the reporting boundary.

The atomic density never appears on its own: all density-dependent
prefactors are folded into one dimensionless electric coupling
``density_coupling`` (kappa_e), which is either set directly or fixed
by the CLI calibration routine.  The magnetic and cross couplings are
derived from it through the fixed dipole-moment ratio
mu_13 = dipole_ratio * c * sigma_14.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields, replace

from .errors import (
    BadPropagationSign,
    BadPulseSpec,
    ConfigurationError,
    NegativeDopplerWidth,
    NonPositiveCoupling,
    NonPositiveDecay,
)

C_LIGHT = 299792458.0  # speed of light, m/s


@dataclass(frozen=True)
class SystemParams:
    """Drive fields, detunings and decay rates of the four-level atom.

    omega_1..omega_3 are the control-field Rabi frequencies; omega_p
    and omega_b the (first-order) electric and magnetic probe Rabi
    frequencies.  phi is the phase of the closed-loop microwave field.
    alpha_1..alpha_3 are the propagation signs (+1 co-propagating,
    -1 counter-propagating) multiplying the velocity shift kv in the
    Doppler replacement of the respective detuning.  delta_1, alpha_1,
    omega_p and omega_b are validated and serialized but change no
    output: no coherence equation carries the shifted d_1 on its
    diagonal, and the response is linear in the probe amplitudes.
    """

    omega_1: float = 0.1
    omega_2: float = 1.0
    omega_3: float = 0.7
    omega_p: float = 1.0e-3
    omega_b: float = 1.0e-3
    delta_p: float = 0.0
    delta_b: float = 0.0
    delta_1: float = 0.0
    delta_2: float = 0.0
    gamma_1: float = 0.1
    gamma_2: float = 0.1
    gamma_3: float = 0.1
    gamma_4: float = 0.1
    phi: float = math.pi / 2
    alpha_1: float = 1.0
    alpha_2: float = 1.0
    alpha_3: float = 1.0


@dataclass(frozen=True)
class MediumParams:
    """Macroscopic medium constants and unit anchors.

    density_coupling is the dimensionless electric coupling kappa_e
    (atomic density times electric-dipole strength over epsilon_0
    hbar gamma); dipole_ratio is r_mu with mu_13 = r_mu * c * sigma_14,
    so the derived magnetic coupling is kappa_m = kappa_e * r_mu**2.
    """

    gamma_unit: float = 1.0e9  # gamma scale in SI angular frequency, rad/s
    omega_14: float = 1.0e4  # transition frequency, units of gamma
    length_L: float = 0.06  # medium length, meters
    v_doppler: float = 0.0  # Doppler width, units of gamma (0 = cold)
    density_coupling: float = 1.0  # kappa_e
    dipole_ratio: float = 5.3e-5  # r_mu = mu_13 / (c * sigma_14)


@dataclass(frozen=True)
class PulseSpec:
    """Input pulse parameters.

    tau_0 is the 1/e half-width of the field envelope (seconds, finite
    and > 0) and delta the upshift of the pulse spectrum from the
    carrier (rad/s, finite).  The carrier comes from the medium and the
    sampling from pulse.N_SAMPLES and pulse.WINDOW_TAU.
    """

    tau_0: float = 5.50e-9
    delta: float = 2.0e9

    def __post_init__(self):
        bad = []
        if not (finite(self.tau_0) and self.tau_0 > 0):
            bad.append(f"tau_0 must be finite and > 0, got {self.tau_0!r}")
        if not finite(self.delta):
            bad.append(f"delta must be finite, got {self.delta!r}")
        if bad:
            raise BadPulseSpec("invalid pulse: " + "; ".join(bad))


@dataclass(frozen=True)
class ValidatedConfig:
    """Immutable validated (SystemParams, MediumParams) pair."""

    system: SystemParams
    medium: MediumParams


def finite(x) -> bool:
    """The package's one test for a number from outside: a real number in
    the double range (booleans and arrays are not numbers here)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def validate(system: SystemParams, medium: MediumParams) -> ValidatedConfig:
    """Validate a configuration, raising with *all* violations at once
    (the error's ``violations``, in rule order)."""
    errs = []
    for name in ("gamma_1", "gamma_2", "gamma_3", "gamma_4"):
        v = getattr(system, name)
        if not finite(v) or v <= 0.0:
            errs.append(NonPositiveDecay(f"{name} must be finite and > 0, got {v!r}"))
    for name in ("alpha_1", "alpha_2", "alpha_3"):
        v = getattr(system, name)
        if isinstance(v, bool) or v not in (1, -1):
            errs.append(BadPropagationSign(f"{name} must be +1 or -1, got {v!r}"))
    for name in ("omega_1", "omega_2", "omega_3", "omega_p", "omega_b"):
        v = getattr(system, name)
        if not finite(v) or v < 0.0:
            errs.append(NonPositiveCoupling(f"{name} must be finite and >= 0, got {v!r}"))
    for name in ("delta_p", "delta_b", "delta_1", "delta_2", "phi"):
        v = getattr(system, name)
        if not finite(v):
            errs.append(NonPositiveCoupling(f"{name} must be finite, got {v!r}"))

    if not finite(medium.v_doppler) or medium.v_doppler < 0.0:
        errs.append(NegativeDopplerWidth(
            f"v_doppler must be finite and >= 0, got {medium.v_doppler!r}"))
    for name, lo in (("gamma_unit", 0.0), ("omega_14", 0.0),
                     ("length_L", 0.0), ("density_coupling", 0.0)):
        v = getattr(medium, name)
        if not finite(v) or v <= lo:
            errs.append(NonPositiveCoupling(f"{name} must be finite and > 0, got {v!r}"))
    r = medium.dipole_ratio
    if not finite(r) or not (0.0 <= r < 1.0):
        errs.append(NonPositiveCoupling(
            f"dipole_ratio must satisfy 0 <= r_mu < 1, got {r!r}"))
    if errs:
        msg = "; ".join(str(e) for e in errs)
        raise ConfigurationError(f"invalid configuration: {msg}", violations=errs)
    return ValidatedConfig(system=system, medium=medium)


def derived_couplings(medium: MediumParams) -> dict:
    """Electric, magnetic and cross coupling prefactors.

    kappa_m/kappa_e = r_mu**2 and kappa_x/kappa_e = r_mu exactly.
    """
    kappa_e = medium.density_coupling
    r = medium.dipole_ratio
    return {"kappa_e": kappa_e, "kappa_m": kappa_e * r * r, "kappa_x": kappa_e * r}


# --- (de)serialization ----------------------------------------------------

_SYSTEM_FIELDS = frozenset(f.name for f in fields(SystemParams))
_MEDIUM_FIELDS = frozenset(f.name for f in fields(MediumParams))


def to_dict(cfg: ValidatedConfig) -> dict:
    """Serialize to the nested {"system": ..., "medium": ...} layout."""
    return {"system": asdict(cfg.system), "medium": asdict(cfg.medium)}


def from_dict(doc: dict, base: ValidatedConfig | None = None) -> ValidatedConfig:
    """Parse the nested config document; unknown keys are a hard error.

    Fields the document leaves out keep their value in ``base`` (the
    defaults if None), so a document can override a preset field by
    field.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config document must be a mapping, got {type(doc).__name__}")
    unknown_sections = set(doc) - {"system", "medium"}
    if unknown_sections:
        raise ConfigurationError(
            f"unknown top-level config sections {sorted(unknown_sections)} "
            "(expected only 'system' and 'medium')")
    sys_doc = doc.get("system", {})
    med_doc = doc.get("medium", {})
    for name, section in (("system", sys_doc), ("medium", med_doc)):
        if not isinstance(section, dict):
            raise ConfigurationError(
                f"config section {name!r} must be a mapping, got "
                f"{type(section).__name__}")
    bad = sorted(set(sys_doc) - _SYSTEM_FIELDS) + sorted(set(med_doc) - _MEDIUM_FIELDS)
    if bad:
        raise ConfigurationError(f"unknown config keys: {bad}")
    base = base or ValidatedConfig(SystemParams(), MediumParams())
    return validate(replace(base.system, **sys_doc), replace(base.medium, **med_doc))


def load_config(path, base: ValidatedConfig | None = None) -> ValidatedConfig:
    """Read a JSON config file and merge it over ``base`` via from_dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigurationError(f"cannot read config {path}: {e}") from e
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # bad JSON, too many digits, too deep
        raise ConfigurationError(f"config is not valid JSON: {e}") from e
    return from_dict(doc, base=base)


def with_overrides(cfg: ValidatedConfig, system=None, medium=None) -> ValidatedConfig:
    """Re-validated copy with field overrides, merged through from_dict."""
    return from_dict({"system": system or {}, "medium": medium or {}}, base=cfg)
