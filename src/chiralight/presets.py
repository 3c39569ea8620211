"""Named parameter scenarios for the standard measurement families.

Two base families recur throughout:

* the *subluminal* family -- narrow lines (all decays 0.1), weak loop
  drive (omega_1 = 0.1, omega_2 = 1), thermal width 0.5;
* the *superluminal* family -- broad lines (all decays 2), strong
  symmetric drive (omega_1 = omega_2 = 2), thermal width 1.5.

Preset names follow the figure-panel naming used by the sweep recipes
(fig2a ... fig8d); panels that share one parameter set are aliases of
a single canonical scenario.  The pulse presets additionally carry the
quoted first-order dispersion constants (group index n_0 and GVD in
units of 1/(c * gamma_unit^2)) for the cold and hot medium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .params import (
    C_LIGHT,
    MediumParams,
    SystemParams,
    ValidatedConfig,
    to_dict,
    validate,
)


@dataclass(frozen=True)
class Scenario:
    """A named, fully specified measurement configuration."""

    name: str
    note: str
    system: dict = field(default_factory=dict)
    medium: dict = field(default_factory=dict)
    mode: str = "both"
    vd_list: tuple = ()
    omega3_list: tuple = ()
    pulse_constants: dict = field(default_factory=dict)

    def config(self) -> ValidatedConfig:
        return validate(SystemParams(**self.system), MediumParams(**self.medium))


_SUBLUMINAL = dict(
    gamma_1=0.1, gamma_2=0.1, gamma_3=0.1, gamma_4=0.1,
    omega_1=0.1, omega_2=1.0, omega_3=0.7,
    delta_p=0.0, delta_b=0.0, delta_1=0.0, delta_2=0.0,
    phi=math.pi / 2,
)
_SUPERLUMINAL = dict(
    gamma_1=2.0, gamma_2=2.0, gamma_3=2.0, gamma_4=2.0,
    omega_1=2.0, omega_2=2.0, omega_3=1.5,
    delta_p=0.0, delta_b=0.0, delta_1=0.0, delta_2=0.0,
    phi=math.pi / 2,
)


CATALOG = {
    "fig2a": Scenario(
        name="fig2a",
        note="subluminal family, omega_3 = 0.7 (susceptibility spectra)",
        system=dict(_SUBLUMINAL),
        medium=dict(v_doppler=0.5),
        mode="cold",
    ),
    "fig2b": Scenario(
        name="fig2b",
        note="subluminal family, omega_3 = 1.0 (susceptibility spectra)",
        system=dict(_SUBLUMINAL, omega_3=1.0),
        medium=dict(v_doppler=0.5),
        mode="cold",
    ),
    "fig2e": Scenario(
        name="fig2e",
        note="subluminal family, strong omega_2 = 4 drive, narrow thermal "
             "width 0.1 (vanishing electric absorption at resonance)",
        system=dict(_SUBLUMINAL, omega_2=4.0),
        medium=dict(v_doppler=0.1),
        mode="cold",
    ),
    "fig4a": Scenario(
        name="fig4a",
        note="superluminal family, omega_3 = 1.5 (susceptibility spectra)",
        system=dict(_SUPERLUMINAL),
        medium=dict(v_doppler=1.5),
        mode="cold",
    ),
    "fig4b": Scenario(
        name="fig4b",
        note="superluminal family, omega_3 = 5.0 (susceptibility spectra)",
        system=dict(_SUPERLUMINAL, omega_3=5.0),
        medium=dict(v_doppler=1.5),
        mode="cold",
    ),
    "fig6": Scenario(
        name="fig6",
        note="subluminal family with omega_2 = 4, thermal-width stepping",
        system=dict(_SUBLUMINAL, omega_2=4.0),
        medium=dict(v_doppler=0.1),
        mode="hot",
        vd_list=(0.0, 0.1, 0.2, 0.3),
    ),
    "fig7a": Scenario(
        name="fig7a",
        note="superluminal family, omega_3 = 1.5, group index vs detuning "
             "(6 cm cell)",
        system=dict(_SUPERLUMINAL),
        medium=dict(v_doppler=1.5),
    ),
    "fig7b": Scenario(
        name="fig7b",
        note="superluminal family, omega_3 = 5.0, group index vs detuning "
             "(6 cm cell)",
        system=dict(_SUPERLUMINAL, omega_3=5.0),
        medium=dict(v_doppler=1.5),
    ),
    "fig7e": Scenario(
        name="fig7e",
        note="superluminal family at zero probe detuning, group index and "
             "velocity vs omega_3",
        system=dict(_SUPERLUMINAL),
        medium=dict(v_doppler=1.5),
        omega3_list=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0),
    ),
    "fig8ab": Scenario(
        name="fig8ab",
        note="pulse propagation, subluminal family constants "
             "(delay without reshaping)",
        system=dict(_SUBLUMINAL),
        medium=dict(v_doppler=0.5),
        pulse_constants={
            "cold": {"n_0": 1415.65, "g_vd": 759.44},
            "hot": {"n_0": 1618.15, "g_vd": 18.92},
        },
    ),
    "fig8cd": Scenario(
        name="fig8cd",
        note="pulse propagation, superluminal family constants "
             "(advancement without reshaping)",
        system=dict(_SUPERLUMINAL),
        medium=dict(v_doppler=1.5),
        pulse_constants={
            "cold": {"n_0": -2023.81, "g_vd": -9006.67},
            "hot": {"n_0": -1487.22, "g_vd": -344.57},
        },
    ),
}

ALIASES = {
    "fig2c": "fig2a", "fig3a": "fig2a", "fig3c": "fig2a",
    "fig2d": "fig2b", "fig3b": "fig2b", "fig3d": "fig2b",
    "fig2f": "fig2e", "fig3e": "fig2e", "fig3f": "fig2e",
    "fig4c": "fig4a", "fig5a": "fig4a", "fig5c": "fig4a",
    "fig4d": "fig4b", "fig5b": "fig4b", "fig5d": "fig4b",
    "fig7c": "fig7a", "fig7d": "fig7b",
    "fig7f": "fig7e", "fig7": "fig7e",
    "fig8a": "fig8ab", "fig8b": "fig8ab",
    "fig8c": "fig8cd", "fig8d": "fig8cd",
}

FIGURE_GROUPS = {
    "fig2": ("fig2a", "fig2b", "fig2e"),
    "fig3": ("fig2a", "fig2b", "fig2e"),
    "fig4": ("fig4a", "fig4b"),
    "fig5": ("fig4a", "fig4b"),
    "fig6": ("fig6",),
    "fig7": ("fig7a", "fig7b", "fig7e"),
    "fig8": ("fig8ab", "fig8cd"),
}


def names() -> list:
    """Every accepted preset name (canonical + aliases), sorted."""
    return sorted(set(CATALOG) | set(ALIASES))


def get(name: str) -> Scenario:
    canonical = ALIASES.get(name, name)
    try:
        return CATALOG[canonical]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(names())}"
        ) from None


def expand(name: str) -> tuple:
    """The presets a name, alias or figure group stands for (a group
    that is no preset expands: `fig7` here is all of Fig. 7, not fig7e)."""
    if name in FIGURE_GROUPS and name not in CATALOG:
        return FIGURE_GROUPS[name]
    if ALIASES.get(name, name) not in CATALOG:
        raise ConfigurationError(f"unknown preset {name!r}; available: {', '.join(names())}"
                                 f"; figure groups: {', '.join(FIGURE_GROUPS)}")
    return (name,)


def pulse_dispersion_si(scenario: Scenario, mode: str) -> dict:
    """The scenario's quoted dispersion constants in SI units.

    The quoted GVD numbers are in units of 1/(c*gamma_unit^2);
    returns {'n_0': dimensionless, 'g_vd': s^2/m}.
    """
    if mode not in scenario.pulse_constants:
        raise ConfigurationError(
            f"preset {scenario.name!r} carries no pulse constants for "
            f"mode {mode!r}")
    raw = scenario.pulse_constants[mode]
    gamma_unit = scenario.medium.get("gamma_unit", MediumParams().gamma_unit)
    return {
        "n_0": raw["n_0"],
        "g_vd": raw["g_vd"] / (C_LIGHT * gamma_unit ** 2),
    }


def dump(name: str) -> dict:
    """Fully resolved parameter record for one preset (for diffing)."""
    scenario = get(name)
    cfg = scenario.config()
    aliases = sorted(a for a, c in ALIASES.items() if c == scenario.name)
    record = {
        "name": scenario.name,
        "aliases": aliases,
        "note": scenario.note,
        "mode": scenario.mode,
    }
    record.update(to_dict(cfg))
    if scenario.vd_list:
        record["vd_list"] = list(scenario.vd_list)
    if scenario.omega3_list:
        record["omega3_list"] = list(scenario.omega3_list)
    if scenario.pulse_constants:
        record["pulse_constants"] = scenario.pulse_constants
    return record
