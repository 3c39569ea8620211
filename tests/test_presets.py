"""Tests for the preset catalog.

Every canonical preset is frozen as a JSON fixture; the catalog must
reproduce it exactly, so any edit to a published parameter set is a
deliberate, visible diff.  A handful of family-defining literals are
asserted directly so the fixtures are not purely self-referential.
"""

import json
import math
import pathlib

import pytest

from chiralight import presets
from chiralight.errors import ConfigurationError

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("name", sorted(presets.CATALOG))
def test_dump_matches_frozen_fixture(name):
    frozen = json.loads((FIXTURES / f"preset_{name}.json").read_text())
    assert presets.dump(name) == frozen


def test_every_name_resolves_and_validates():
    for name in presets.names():
        scenario = presets.get(name)
        assert scenario.name in presets.CATALOG
        scenario.config()  # must not raise


def test_aliases_share_canonical_scenario():
    assert presets.get("fig3a") is presets.get("fig2a")
    assert presets.get("fig8d") is presets.get("fig8cd")
    assert presets.get("fig7") is presets.get("fig7e")


def test_unknown_preset_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="unknown preset"):
        presets.get("fig99")


def test_figure_groups_are_read_off_the_catalog():
    # each figure's canonical presets, sorted, under sorted figure keys
    assert list(presets.FIGURE_GROUPS.items()) == [
        ("fig2", ("fig2a", "fig2b", "fig2e")),
        ("fig3", ("fig2a", "fig2b", "fig2e")),
        ("fig4", ("fig4a", "fig4b")),
        ("fig5", ("fig4a", "fig4b")),
        ("fig6", ("fig6",)),
        ("fig7", ("fig7a", "fig7b", "fig7e")),
        ("fig8", ("fig8ab", "fig8cd")),
    ]


def test_fig7_is_an_alias_and_a_group():
    assert presets.get("fig7").name == "fig7e"
    assert presets.expand("fig7") == ("fig7a", "fig7b", "fig7e")
    assert presets.expand("fig6") == ("fig6",)
    assert presets.expand("fig7f") == ("fig7f",)


def test_figure_groups_cover_canonical_presets():
    members = {m for group in presets.FIGURE_GROUPS.values() for m in group}
    assert members == set(presets.CATALOG)


def test_family_literals():
    # Subluminal family: narrow lines, weak loop drive, thermal width 0.5.
    a = presets.get("fig2a")
    assert a.system["gamma_1"] == 0.1
    assert a.system["omega_1"] == 0.1
    assert a.system["omega_2"] == 1.0
    assert a.system["omega_3"] == 0.7
    assert a.system["phi"] == pytest.approx(math.pi / 2)
    assert a.medium["v_doppler"] == 0.5
    assert presets.get("fig2b").system["omega_3"] == 1.0
    assert presets.get("fig2e").system["omega_2"] == 4.0

    # Superluminal family: broad lines, strong symmetric drive, width 1.5.
    b = presets.get("fig4a")
    assert b.system["gamma_1"] == 2.0
    assert b.system["omega_1"] == b.system["omega_2"] == 2.0
    assert b.system["omega_3"] == 1.5
    assert b.medium["v_doppler"] == 1.5
    assert presets.get("fig4b").system["omega_3"] == 5.0


def test_sweep_lists():
    assert presets.get("fig6").vd_list == (0.0, 0.1, 0.2, 0.3)
    assert presets.get("fig7e").omega3_list == tuple(
        1.0 + 0.5 * k for k in range(9))


def test_pulse_constants_and_si_conversion():
    ab = presets.get("fig8ab")
    assert ab.pulse_constants["cold"] == {"n_0": 1415.65, "g_vd": 759.44}
    assert ab.pulse_constants["hot"] == {"n_0": 1618.15, "g_vd": 18.92}
    cd = presets.get("fig8cd")
    assert cd.pulse_constants["cold"] == {"n_0": -2023.81, "g_vd": -9006.67}
    assert cd.pulse_constants["hot"] == {"n_0": -1487.22, "g_vd": -344.57}

    si = presets.pulse_dispersion_si(ab, "cold")
    assert si["n_0"] == 1415.65
    assert si["g_vd"] == pytest.approx(759.44 / (2.99792458e8 * 1e18), rel=1e-12)

    with pytest.raises(ConfigurationError, match="no pulse constants"):
        presets.pulse_dispersion_si(presets.get("fig2a"), "cold")


def test_default_probe_detuning_is_resonant():
    for name in presets.CATALOG:
        cfg = presets.get(name).config()
        assert cfg.system.delta_p == 0.0
        assert cfg.medium.omega_14 == 1.0e4
        assert cfg.medium.length_L == 0.06
