"""Dimensional scaling of every printed number, through the CLI.

The model is dimensionless in units of gamma; SI enters only through
``gamma_unit``, ``length_L`` and the pulse's ``tau_0`` and ``delta``.
So the map (gamma, tau_0, delta, L) -> (4 gamma, tau_0/4, 4 delta, L/4)
must leave every dimensionless printed value fixed and divide every
printed time (``tau_ns``, ``peak_shift_ns``) and ``g_vd_si`` by 4.  A
power of two scales a double exactly, so the test asserts equal bytes
and exact quarters.  JSON output is used throughout, since CSV's %.12g
rounds each side on its own.  This is a metamorphic test of
Buckingham's pi theorem: it needs no reference value, and it catches a
misplaced unit anywhere on the route, e.g. a ``gamma_unit ** 2`` in
``optics.dispersion_coefficients`` or a dropped ``length_L`` in
``pulse.arrival_time``.

Only the computed route is covered.  The quoted pulse constants of the
fig8 presets are numbers in fixed units and do not follow the law, and
any ``gamma_unit`` override already moves ``pulse`` off them.  So both
runs override kappa_e as well, which keeps the unscaled run on the
computed route too.
"""

import json

import pytest

from chiralight.cli import main

BASE = {"density_coupling": 0.5}
SCALED = {**BASE, "gamma_unit": 4.0e9, "length_L": 0.06 / 4}
PULSE_SCALED = ["--tau0", json.dumps(5.5 / 4), "--delta", json.dumps(2.0e9 * 4)]

# the pulse's metric rows that scale as 1/gamma_unit
QUARTERED = ("peak_shift_ns", "g_vd_si")


def _pair(tmp_path, capsys, argv, scaled_extra=()):
    """JSON output of argv at the base and at the scaled units."""
    out = []
    for name, medium, extra in (("base", BASE, ()), ("scaled", SCALED, scaled_extra)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"medium": medium}))
        assert main([*argv, "--config", str(path), *extra]) == 0
        out.append(capsys.readouterr().out)
    return out


def test_spectrum_is_unchanged(tmp_path, capsys):
    base, scaled = _pair(tmp_path, capsys, ["spectrum", "--preset", "fig2a", "--mode", "both",
                                            "--grid", "-1:1:5", "--format", "json"])
    assert scaled == base


def test_crossover_is_unchanged(tmp_path, capsys):
    base, scaled = _pair(tmp_path, capsys, ["crossover", "--preset", "fig7",
                                            "--format", "json"])
    assert scaled == base


def test_calibration_is_unchanged(tmp_path, capsys):
    # the config block echoes gamma_unit and length_L by design
    base, scaled = _pair(tmp_path, capsys,
                         ["calibrate", "--preset", "fig8ab", "--target", "1415.65"])
    assert json.loads(scaled)["calibration"] == json.loads(base)["calibration"]


def test_delay_rows_scale(tmp_path, capsys):
    base, scaled = _pair(tmp_path, capsys, ["delay", "--preset", "fig8ab", "--mode",
                                            "both", "--format", "json"])
    base, scaled = json.loads(base), json.loads(scaled)
    assert [row["mode"] for row in base] == ["cold", "hot"]
    for b, s in zip(base, scaled, strict=True):
        assert s["tau_ns"] == b["tau_ns"] / 4
        assert {k: v for k, v in s.items() if k != "tau_ns"} == \
            {k: v for k, v in b.items() if k != "tau_ns"}


@pytest.mark.parametrize("preset, series", [("fig2a", ["cold"]),
                                            ("fig8ab", ["cold", "hot"])])
def test_pulse_scales(tmp_path, capsys, preset, series):
    base, scaled = _pair(tmp_path, capsys, ["pulse", "--preset", preset, "--format",
                                            "json"], PULSE_SCALED)
    base, scaled = json.loads(base), json.loads(scaled)
    assert len(base) == len(scaled) == 4101
    moved = 0
    for b, s in zip(base, scaled, strict=True):
        if b["x"] in QUARTERED:
            for label in series:
                assert s[label] == b[label] / 4
            s = {**s, **{label: b[label] for label in series}}
            moved += 1
        assert s == b
    assert moved == 2
