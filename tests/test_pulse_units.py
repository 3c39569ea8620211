"""The numbers of docs/pulse-units.md: both readings of the quoted GVD
constants, the two routes of one `pulse` command, and the constants and
optical depths the model computes."""

import json

import pytest

from chiralight import optics, presets
from chiralight.cli import main
from chiralight.params import C_LIGHT, with_overrides

# (preset, mode): (quoted GVD, raw/(c*gamma^2) as printed, raw/(c*gamma))
READINGS = {
    ("fig8ab", "cold"): (759.44, 2.53321916457e-24, 2.53321916457e-15),
    ("fig8ab", "hot"): (18.92, 6.31103268115e-26, 6.31103268115e-17),
    ("fig8cd", "cold"): (-9006.67, -3.0043017293e-23, -3.0043017293e-14),
    ("fig8cd", "hot"): (-344.57, -1.14936180282e-24, -1.14936180282e-15),
}

# (preset, kappa_e, mode): (n_0, g_vd in s^2/m, intensity optical depth 2 Im k(0) L)
COMPUTED = {
    ("fig8ab", 1.0, "cold"): (1607.53462158, 8.50603995609e-15, 514.64),
    ("fig8ab", 1.0, "hot"): (4508.98718646, 1.01254402538e-14, 639.89),
    ("fig8ab", 0.875712989027, "cold"): (1415.65, 6.57628371382e-15, 451.52),
    ("fig8ab", 0.875712989027, "hot"): (3981.70986074, 7.73799842169e-15, 561.96),
    ("fig8cd", 1.0, "cold"): (-414.986226361, -1.68361714849e-16, 415.96),
    ("fig8cd", 1.0, "hot"): (-288.685759025, -7.63942699278e-17, 367.30),
    ("fig8cd", 7.402177196253822, "cold"): (-2023.81, -3.00429579288e-15, 2596.92),
    ("fig8cd", 7.402177196253822, "hot"): (-1488.01717371, -1.52607665385e-15, 2353.54),
}


@pytest.mark.parametrize("name, mode", sorted(READINGS))
def test_both_readings_of_the_quoted_gvd(name, mode):
    """The package reads a quoted GVD per c*gamma^2 (units s^3/m); per
    c*gamma, the unit of its own g_vd (s^2/m), it is gamma = 1e9 times
    larger."""
    raw, per_gamma2, per_gamma = READINGS[name, mode]
    scenario = presets.get(name)
    gamma = scenario.config().medium.gamma_unit
    assert scenario.pulse_constants[mode]["g_vd"] == raw
    assert presets.pulse_dispersion_si(scenario, scenario.config(), mode)["g_vd"] == pytest.approx(
        per_gamma2, rel=1e-11)
    assert raw / (C_LIGHT * gamma) == pytest.approx(per_gamma, rel=1e-11)
    assert gamma == 1e9


def _metrics(capsys, *argv):
    assert main(["pulse", *argv]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    return {row[1]: row[3] for row in rows if row[0] == "metric"}  # the cold column


def test_two_routes_of_one_pulse_command_disagree_by_nine_orders(tmp_path, capsys):
    """The preset's own medium takes the quoted constants; calibrated to
    the same cold n_0, the computed g_vd is 2.6e9 times larger."""
    quoted = _metrics(capsys, "--preset", "fig8ab", "--mode", "cold")
    assert (quoted["n_0"], quoted["g_vd_si"]) == ("1415.65", "2.53321916457e-24")
    kappa = tmp_path / "kappa.json"
    kappa.write_text(json.dumps({"medium": {"density_coupling": 0.875712989027}}))
    computed = _metrics(capsys, "--preset", "fig8ab", "--mode", "cold", "--config", str(kappa))
    assert (computed["n_0"], computed["g_vd_si"]) == ("1415.65", "6.57628371382e-15")
    assert (computed["width_ratio"], computed["distortion"]) == ("26.1068961045", "0.723421121044")


@pytest.mark.parametrize("name, kappa, mode", list(COMPUTED))
def test_computed_constants_and_optical_depth(name, kappa, mode):
    n_0, g_vd, depth = COMPUTED[name, kappa, mode]
    cfg = with_overrides(presets.get(name).config(), medium={"density_coupling": kappa})
    m = cfg.medium
    got = optics.dispersion_coefficients(cfg, mode=mode)
    assert got["n_0"] == pytest.approx(n_0, rel=1e-9)
    assert got["g_vd"] == pytest.approx(g_vd, rel=1e-9)
    n = optics.group_index_at(cfg, 0.0, mode=mode).n_complex
    assert 2 * n.imag * m.omega_14 * m.gamma_unit / C_LIGHT * m.length_L == pytest.approx(
        depth, abs=0.005)
