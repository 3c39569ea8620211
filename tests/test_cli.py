"""End-to-end tests of the command-line interface.

Every invocation goes through ``main`` in-process; stdout is parsed
back and cross-checked against the library, and the exit-code contract
(0 ok / 2 configuration / 3 numerical) is exercised for each family.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chiralight
from chiralight import optics, presets, pulse
from chiralight.cli import _fmt, _jsonable, main, parse_grid
from chiralight.errors import ConfigurationError
from chiralight.params import C_LIGHT, MediumParams, SystemParams, load_config, to_dict

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def _assert_named_config_error(code, out, err, name):
    assert code == 2
    assert out == ""
    assert f"configuration error: {name}:" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# argument parsing


# Counts past numpy's array limit (intp max bytes of float64): 2^60 - 1
# (its float is 2^60), 2^60, 1e20, 2^63 - 1 and 2^63.
HUGE_COUNTS = ("1152921504606846975", "1152921504606846976", "100000000000000000000",
               "9223372036854775807", "9223372036854775808")


def test_parse_grid():
    grid = parse_grid("-10:10:2001")
    assert grid.size == 2001
    assert grid[0] == -10.0 and grid[-1] == 10.0
    with pytest.raises(ConfigurationError):
        parse_grid("1:2")
    with pytest.raises(ConfigurationError):
        parse_grid("1:2:0")
    for count in HUGE_COUNTS:
        with pytest.raises(ConfigurationError, match="count too large$"):
            parse_grid(f"0:1:{count}")


@pytest.mark.parametrize("abbreviated, full", [
    (("spectrum", "--preset", "fig2a", "--gr", "-1:1:3"),
     ("spectrum", "--preset", "fig2a", "--grid", "-1:1:3")),
    (("pulse", "--preset", "fig8ab", "--del", "-1e9"),
     ("pulse", "--preset", "fig8ab", "--delta", "-1e9")),
])
def test_abbreviated_flag_takes_a_negative_value(capsys, abbreviated, full):
    code, out, err = run(capsys, *abbreviated)
    assert code == 0, err
    assert out == run(capsys, *full)[1]


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_grid_rows_and_columns(capsys):
    code, out, _ = run(capsys, "spectrum", "--preset", "fig2a",
                       "--grid", "-10:10:2001")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["delta_p", "mode", "v_doppler",
                      "re_chi_e", "im_chi_e", "re_chi_m", "im_chi_m",
                      "re_xi_eh", "im_xi_eh", "re_xi_he", "im_xi_he",
                      "n_r", "n_g"]
    assert len(rows) == 2001
    assert {r["mode"] for r in rows} == {"cold"}
    assert float(rows[0]["delta_p"]) == -10.0
    assert float(rows[-1]["delta_p"]) == 10.0


def test_spectrum_values_match_library(capsys):
    code, out, _ = run(capsys, "spectrum", "--preset", "fig2a",
                       "--grid", "-2:2:5")
    assert code == 0
    _, rows = parse_csv(out)
    cfg = presets.get("fig2a").config()
    curve, resp = optics.group_index_curve(cfg, np.linspace(-2, 2, 5),
                                           mode="cold", return_response=True)
    for i, row in enumerate(rows):
        assert float(row["re_chi_e"]) == pytest.approx(resp.chi_e[i].real, rel=1e-11)
        assert float(row["im_chi_m"]) == pytest.approx(resp.chi_m[i].imag, rel=1e-11)
        assert float(row["re_xi_eh"]) == pytest.approx(resp.xi_eh[i].real, rel=1e-11)
        assert float(row["n_g"]) == pytest.approx(curve.N_g[i], rel=1e-11)


def test_spectrum_thermal_width_sweep(capsys):
    code, out, _ = run(capsys, "spectrum", "--preset", "fig6",
                       "--grid", "-2:2:9", "--vd", "0.1,0.3")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 18  # preset mode is hot: one series per width
    assert {r["v_doppler"] for r in rows} == {"0.1", "0.3"}

    code, out, _ = run(capsys, "spectrum", "--preset", "fig6", "--mode",
                       "both", "--grid", "-2:2:9", "--vd", "0.1,0.3")
    assert code == 0
    _, rows = parse_csv(out)
    cold = [r for r in rows if r["mode"] == "cold"]
    hot = [r for r in rows if r["mode"] == "hot"]
    assert len(cold) == 9  # cold response is width-independent: emitted once
    assert len(hot) == 18


def test_spectrum_output_is_deterministic(capsys):
    argv = ("spectrum", "--preset", "fig2a", "--grid", "-3:3:11")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    argv_json = argv + ("--format", "json")
    _, first_json, _ = run(capsys, *argv_json)
    _, second_json, _ = run(capsys, *argv_json)
    assert first_json == second_json


ERROR_ROWS = ("--config", str(FIXTURES / "config_error_rows.json"))


@pytest.mark.parametrize("argv", [
    ("spectrum", "--preset", "fig2a", "--grid", "-1:1:5"),
    ("delay", "--preset", "fig2a", *ERROR_ROWS, "--omega3", "0.001,0.7", "--mode", "cold"),
    ("crossover", "--preset", "fig7", "--omega3-range", "3:4"),
    ("pulse", "--preset", "fig8ab"),
], ids=lambda argv: argv[0])
def test_json_mirrors_csv(capsys, argv):
    # every JSON value prints as its CSV cell, and null is the empty cell
    _, out_csv, _ = run(capsys, *argv)
    _, out_json, _ = run(capsys, *argv, "--format", "json")
    header, rows = parse_csv(out_csv)
    doc = json.loads(out_json)
    assert len(doc) == len(rows)
    for rec, row in zip(doc, rows):
        assert list(rec) == header
        for key in header:
            assert _fmt(rec[key]) == row[key]
            assert (rec[key] is None) == (row[key] == "")


def test_out_file_writes_same_bytes(tmp_path, capsys):
    target = tmp_path / "spectrum.csv"
    argv = ("spectrum", "--preset", "fig2a", "--grid", "-1:1:5")
    _, out, _ = run(capsys, *argv)
    code, silent, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0
    assert silent == ""
    assert target.read_text() == out


# ---------------------------------------------------------------------------
# delay


def test_delay_omega3_by_mode_rows(capsys):
    code, out, _ = run(capsys, "delay", "--preset", "fig7",
                       "--omega3", "0.7,1.0,1.5,5.0", "--mode", "both")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["scenario", "omega_3", "mode", "n_g", "v_g",
                      "tau_ns", "error"]
    assert len(rows) == 8
    assert [r["mode"] for r in rows] == ["cold", "hot"] * 4
    assert [float(r["omega_3"]) for r in rows] == [0.7, 0.7, 1.0, 1.0,
                                                   1.5, 1.5, 5.0, 5.0]
    assert all(r["error"] == "" for r in rows)
    # delay = L*(N_g - 1)/c row-by-row
    cfg = presets.get("fig7").config()
    for r in rows:
        n_g, tau = float(r["n_g"]), float(r["tau_ns"])
        assert tau == pytest.approx(
            cfg.medium.length_L * (n_g - 1.0) / C_LIGHT * 1e9, rel=1e-9)


def test_delay_error_rows_are_unchanged(capsys):
    # at 1e-3 linewidths and Rabi frequencies the 1e-3 stencil fails on
    # both rows: their numeric cells are empty and the error is named
    argv = ("delay", "--preset", "fig2a", *ERROR_ROWS, "--omega3", "0.001,0.7",
            "--mode", "cold")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["error"].split(":")[0] for r in rows] == ["BranchJump", "GridTooCoarse"]
    assert {r[k] for r in rows for k in ("n_g", "v_g", "tau_ns")} == {""}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "027c179d09902e5db5f0fac32ebdd1a46273b6dce6f79a9135e11fd3f5d7655d")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3736f9c24c09e905c6f7d484e50184d1d9f9a0193463540b0dc4b866442f380c")


# ---------------------------------------------------------------------------
# crossover


def test_crossover_finds_sign_change(capsys):
    code, out, _ = run(capsys, "crossover", "--preset", "fig7",
                       "--omega3-range", "3:4")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    star = float(rows[0]["omega3_star"])
    assert 3.0 < star < 4.0


def test_crossover_without_preset_searches_the_default_bracket(tmp_path, capsys):
    path = tmp_path / "fig7.json"
    path.write_text(json.dumps(to_dict(presets.get("fig7").config())))
    code, out, _ = run(capsys, "crossover", "--config", str(path))
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert (row["omega3_lo"], row["omega3_hi"]) == ("1.5", "5")
    assert 3.0 < float(row["omega3_star"]) < 4.0


def test_crossover_without_sign_change_is_numerical_failure(capsys):
    code, out, err = run(capsys, "crossover", "--preset", "fig2a",
                         "--omega3-range", "0.1:0.2")
    assert code == 3
    assert out == ""
    assert "NoCrossoverInRange" in err


# ---------------------------------------------------------------------------
# pulse


def test_pulse_vacuum_metrics(capsys):
    code, out, _ = run(capsys, "pulse", "--preset", "fig8ab", "--vacuum")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["section", "x", "input", "vacuum"]
    metrics = {r["x"]: r for r in rows if r["section"] == "metric"}
    assert set(metrics) == {"peak_shift_ns", "width_ratio", "distortion",
                            "n_0", "g_vd_si"}
    L = presets.get("fig8ab").config().medium.length_L
    assert float(metrics["peak_shift_ns"]["vacuum"]) == pytest.approx(
        L / C_LIGHT * 1e9, rel=1e-4)
    assert float(metrics["width_ratio"]["vacuum"]) == pytest.approx(1.0, rel=1e-6)
    assert float(metrics["n_0"]["vacuum"]) == 1.0
    assert float(metrics["g_vd_si"]["vacuum"]) == 0.0


def test_pulse_preset_peak_separation(capsys):
    code, out, _ = run(capsys, "pulse", "--preset", "fig8ab")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["section", "x", "input", "cold", "hot"]
    sections = {r["section"] for r in rows}
    assert sections == {"time", "frequency", "metric"}
    assert sum(r["section"] == "time" for r in rows) == 2048

    metrics = {r["x"]: r for r in rows if r["section"] == "metric"}
    consts = presets.get("fig8ab").pulse_constants
    expected_sep = ((consts["hot"]["n_0"] - consts["cold"]["n_0"])
                    * 0.06 / C_LIGHT * 1e9)
    sep = (float(metrics["peak_shift_ns"]["hot"])
           - float(metrics["peak_shift_ns"]["cold"]))
    assert sep == pytest.approx(expected_sep, rel=1e-3)
    for label in ("cold", "hot"):
        assert float(metrics["width_ratio"][label]) == pytest.approx(1.0, rel=1e-4)
        assert float(metrics["distortion"][label]) < 1e-4


@pytest.mark.parametrize("doc, quoted", [
    ({"medium": {"length_L": 0.03}}, True),
    ({"system": {"omega_3": 5.0}, "medium": {"density_coupling": 3.0}}, False),
], ids=["length-only", "other-medium"])
def test_pulse_quotes_constants_only_for_the_presets_own_medium(tmp_path, capsys, doc,
                                                                quoted):
    """The quoted n_0 and G_vd hold at any length_L, on which neither
    depends; any other override computes them from the medium."""
    path = tmp_path / "override.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "pulse", "--preset", "fig8ab", "--mode", "cold",
                       "--config", str(path))
    assert code == 0
    metrics = {r["x"]: r["cold"] for r in parse_csv(out)[1] if r["section"] == "metric"}
    scenario = presets.get("fig8ab")
    expected = (presets.pulse_dispersion_si(scenario, "cold") if quoted else
                optics.dispersion_coefficients(load_config(path, base=scenario.config())))
    assert metrics["n_0"] == _fmt(expected["n_0"])
    assert metrics["g_vd_si"] == _fmt(expected["g_vd"])
    assert (metrics["n_0"] == "1415.65") == quoted


@pytest.mark.parametrize("argv", [
    ("--preset", "fig8ab"), ("--preset", "fig8cd"),
    ("--preset", "fig8ab", "--tau0", "6.82", "--vacuum")])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pulse_output_spectra_are_the_input_spectrum(capsys, argv, fmt):
    # |exp(-i k L)| = 1 for real n_0 and g_vd: every output spectrum has
    # the input's power, so each frequency row repeats its input cell
    code, out, _ = run(capsys, "pulse", *argv, "--full", "--format", fmt)
    assert code == 0
    rows = json.loads(out) if fmt == "json" else parse_csv(out)[1]
    spectrum = [r for r in rows if r["section"] == "frequency"]
    assert len(spectrum) == pulse.N_SAMPLES
    for row in spectrum:
        assert {row[k] for k in row if k not in ("section", "x")} == {row["input"]}


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_recovers_unit_coupling(capsys):
    cfg = presets.get("fig2a").config()
    target = optics.group_index_at(cfg, 0.0, mode="cold").N_g
    code, out, _ = run(capsys, "calibrate", "--preset", "fig2a",
                       "--target", repr(target))
    assert code == 0
    doc = json.loads(out)
    cal = doc["calibration"]
    assert cal["kappa_e"] == pytest.approx(1.0, rel=1e-10)
    assert cal["quantity"] == "N_g"
    assert cal["mode"] == "cold"
    assert cal["preset"] == "fig2a"
    assert cal["relative_error"] < 1e-10
    assert doc["config"]["medium"]["density_coupling"] == cal["kappa_e"]


@pytest.mark.parametrize("delta", ["1.4475e11", "-1.4475e11"])
def test_pulse_band_truncated_at_either_edge_is_numerical_failure(capsys, delta):
    # |delta| + 8/tau_0 fits under Nyquist, but the spectrum still stands
    # at ~1e-7 of its peak at the band edge on the side of delta
    code, out, err = run(capsys, "pulse", "--preset", "fig8ab", "--vacuum",
                         "--delta", delta)
    assert code == 3
    assert out == ""
    assert "WindowTooNarrow: Nyquist band [-1.462e+11, 1.462e+11] rad/s does not hold " in err
    assert f"the pulse band {float(delta):.3e} -/+ 1.570e+09 rad/s" in err


@pytest.mark.parametrize("flag,value", [("--tau0", "1e-300"), ("--tau0", "1e300"),
                                        ("--delta", "1e300"), ("--delta", "-1e300")])
def test_absurd_pulse_fails_the_band_check_before_any_overflow(capsys, flag, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "pulse", "--preset", "fig8ab", flag, value)
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: WindowTooNarrow: Nyquist band")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_calibrate_unreachable_target_is_numerical_failure(capsys):
    code, out, err = run(capsys, "calibrate", "--preset", "fig2a",
                         "--target", "1e12", "--bracket", "1:2")
    assert code == 3
    assert "NoRootInBracket" in err


def test_unreachable_target_names_the_bracket_ends_unrounded(capsys):
    code, out, err = run(capsys, "calibrate", "--preset", "fig8ab",
                         "--target", "1", "--bracket", "1:1.0000001")
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: NoRootInBracket: N_g(1.0) - target = "
                          "1606.53 and N_g(1.0000001) - target = 1606.53 ")


# ---------------------------------------------------------------------------
# preset-dump


def test_preset_dump_single_matches_fixture(capsys):
    code, out, _ = run(capsys, "preset-dump", "fig8ab")
    assert code == 0
    frozen = json.loads((FIXTURES / "preset_fig8ab.json").read_text())
    assert json.loads(out) == frozen


def test_preset_dump_group_and_alias(capsys):
    code, out, _ = run(capsys, "preset-dump", "fig2")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"fig2a", "fig2b", "fig2e"}

    code, out, _ = run(capsys, "preset-dump", "fig3a")
    assert code == 0
    assert json.loads(out)["name"] == "fig2a"


def test_preset_dump_unknown_name_lists_figure_groups(capsys):
    code, out, err = run(capsys, "preset-dump", "fig9")
    _assert_named_config_error(code, out, err, "ConfigurationError")
    assert "unknown preset 'fig9'" in err
    # the groups preset-dump accepts are named with the presets
    assert re.search(r"\bfig8\b", err) and "fig8ab" in err


def test_preset_dump_default_lists_all(capsys):
    code, out, _ = run(capsys, "preset-dump")
    assert code == 0
    assert set(json.loads(out)) == set(presets.CATALOG)


# ---------------------------------------------------------------------------
# exit code 2: configuration errors


def test_unknown_preset_exits_2(capsys):
    code, out, err = run(capsys, "spectrum", "--preset", "fig99")
    assert code == 2
    assert "unknown preset" in err


def test_bad_grid_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "--preset", "fig2a", "--grid", "1:2")
    assert code == 2
    code, _, err = run(capsys, "spectrum", "--preset", "fig2a",
                       "--grid", "1:2:0")
    assert code == 2
    for count in HUGE_COUNTS:
        code, _, err = run(capsys, "spectrum", "--preset", "fig2a",
                           "--grid", f"0:1:{count}")
        assert code == 2
        assert f"bad --grid '0:1:{count}': count too large" in err


def test_missing_config_file_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "--config", "/no/such/file.json")
    assert code == 2


def test_unreadable_config_path_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "spectrum", "--config", str(tmp_path))
    _assert_named_config_error(code, out, err, "ConfigurationError")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": {"omega_3": 1.0}}))
    code, _, err = run(capsys, "spectrum", "--preset", "fig2a",
                       "--config", str(bad))
    assert code == 2
    assert "unknown top-level" in err


def test_invalid_physics_exits_2_with_violation_list(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"gamma_1": -1.0, "alpha_2": 0.5}}))
    code, _, err = run(capsys, "spectrum", "--preset", "fig2a",
                       "--config", str(bad))
    assert code == 2
    assert "gamma_1" in err and "alpha_2" in err


def test_config_override_on_preset(tmp_path, capsys):
    over = tmp_path / "over.json"
    over.write_text(json.dumps({"system": {"omega_3": 1.0}}))
    argv = ("spectrum", "--preset", "fig2a", "--grid", "-1:1:5",
            "--config", str(over))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    code2, out_fig2b, _ = run(capsys, "spectrum", "--preset", "fig2b",
                              "--grid", "-1:1:5")
    assert code2 == 0
    # fig2b is fig2a with omega_3 = 1.0 and the same thermal width, so
    # the field-by-field override must reproduce it byte-for-byte
    assert out == out_fig2b


@pytest.mark.parametrize("preset", [(), ("--preset", "fig2a")])
def test_null_config_section_exits_2(tmp_path, capsys, preset):
    bad = tmp_path / "null.json"
    bad.write_text(json.dumps({"system": None}))
    code, out, err = run(capsys, "spectrum", *preset, "--config", str(bad))
    _assert_named_config_error(code, out, err, "ConfigurationError")
    assert "'system' must be a mapping" in err


@pytest.mark.parametrize("content", [
    b'{"system": {', b'\xff\xfe{}',
    pytest.param(b"[" * 100000 + b"]" * 100000, id="nested-too-deep"),
    pytest.param(b'{"system": {"omega_1": ' + b"9" * 5000 + b"}}", id="int-over-digit-limit"),
])
def test_malformed_config_file_over_preset_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "malformed.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, "spectrum", "--preset", "fig2a",
                         "--config", str(bad))
    _assert_named_config_error(code, out, err, "ConfigurationError")


@pytest.mark.parametrize("tau0", ["0", "-1"])
def test_non_positive_pulse_width_exits_2(capsys, tau0):
    code, out, err = run(capsys, "pulse", "--preset", "fig8ab", "--tau0", tau0)
    _assert_named_config_error(code, out, err, "BadPulseSpec")
    assert "tau_0" in err


@pytest.mark.parametrize("tol", ["0", "-1e-3"])
def test_non_positive_crossover_tolerance_exits_2(capsys, tol):
    code, out, err = run(capsys, "crossover", "--preset", "fig7", "--tol", tol)
    _assert_named_config_error(code, out, err, "NonPositiveTolerance")


@pytest.mark.parametrize("doc,name", [
    ({"medium": {"v_doppler": True}}, "NegativeDopplerWidth"),
    ({"system": {"alpha_3": True}}, "BadPropagationSign"),
])
def test_boolean_config_value_exits_2(tmp_path, capsys, doc, name):
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "delay", "--preset", "fig8ab", "--config", str(bad))
    _assert_named_config_error(code, out, err, "ConfigurationError")
    assert f"  - {name}:" in err


def test_crossover_with_zero_thermal_width_names_identical_indices(tmp_path, capsys):
    cold = tmp_path / "cold.json"
    cold.write_text(json.dumps({"medium": {"v_doppler": 0}}))
    code, out, err = run(capsys, "crossover", "--preset", "fig7", "--config", str(cold))
    assert code == 3
    assert out == ""
    assert "NoCrossoverInRange" in err
    assert "hot and cold group indices are identical" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    (("calibrate", "--preset", "fig8ab", "--target", "nan"), "--target"),
    (("calibrate", "--preset", "fig8ab", "--target", "inf"), "--target"),
    (("calibrate", "--preset", "fig8ab", "--target", "1415.65",
      "--delta-p", "nan"), "--delta-p"),
    (("spectrum", "--preset", "fig2a", "--grid", "0:nan:5"), "--grid"),
    (("spectrum", "--preset", "fig2a", "--grid", "0:inf:5"), "--grid"),
    (("spectrum", "--preset", "fig2a", "--grid", "-inf:0:5"), "--grid"),
    (("calibrate", "--preset", "fig8ab", "--target", "1439.29",
      "--bracket", "nan:1"), "--bracket"),
    (("calibrate", "--preset", "fig8ab", "--target", "1439.29",
      "--bracket", "1:inf"), "--bracket"),
    (("crossover", "--preset", "fig7", "--omega3-range", "1:inf"), "--omega3-range"),
])
def test_non_finite_argument_exits_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    _assert_named_config_error(code, out, err, "ConfigurationError")
    assert f"bad {flag}" in err and "must be finite" in err


@pytest.mark.parametrize("argv,flag", [
    (("delay", "--preset", "fig2a", "--omega3", ""), "--omega3"),
    (("spectrum", "--preset", "fig6", "--vd", "", "--grid", "-1:1:3"), "--vd"),
])
def test_empty_list_argument_exits_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    _assert_named_config_error(code, out, err, "ConfigurationError")
    assert f"bad {flag}" in err and "empty list" in err


@pytest.mark.parametrize("argv,message", [
    (("delay", "--preset", "fig2a", "--omega3", "1,x"),
     "bad --omega3 '1,x': expected comma-separated numbers"),
    (("crossover", "--preset", "fig7", "--omega3-range", "1:2:3"),
     "bad --omega3-range '1:2:3': expected lo:hi"),
    (("crossover", "--preset", "fig7", "--omega3-range", "a:2"),
     "bad --omega3-range 'a:2': endpoints must be numbers"),
    (("crossover", "--preset", "fig7", "--omega3-range", "2:1"),
     "bad --omega3-range '2:1': need hi > lo"),
])
def test_malformed_list_or_pair_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    _assert_named_config_error(code, out, err, "ConfigurationError")
    assert err == f"configuration error: ConfigurationError: {message}\n"


def test_overflowing_detuning_grid_exits_3_without_warnings(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "spectrum", "--preset", "fig2a",
                             "--grid", "0:1e300:3")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: CouplingOverflow:")
    assert "overflows at huge detunings or fields" in err
    assert len(err.splitlines()) == 1
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("grid", ["1e308:-1e308:3", "-1.7e308:1.7e308:5", "1e308:-1e308:1"])
def test_overflowing_grid_span_exits_2_without_warnings(capsys, grid):
    # both ends are finite, but np.linspace would warn and return nan/inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "spectrum", "--preset", "fig2a", "--grid", grid)
    _assert_named_config_error(code, out, err, "ConfigurationError")
    assert f"bad --grid {grid!r}: span hi - lo overflows" in err
    assert len(err.splitlines()) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# between max/(outermost node) and max/(largest weighted node) of the
# 512-node level: the conditioning guard answers there, at 64 nodes,
# before the node check could
NODE_WINDOW = {"medium": {"v_doppler": 6.2e306}}


@pytest.mark.parametrize("argv, doc", [
    (("spectrum", "--preset", "fig4a", "--mode", "hot", "--grid", "-1:1:3"),
     {"medium": {"v_doppler": 1e150}}),
    (("spectrum", "--preset", "fig4a", "--mode", "hot", "--grid", "-1:1:3"),
     {"system": {"omega_2": 1e200}}),
    (("crossover", "--preset", "fig7"), {"system": {"omega_2": 1e200}}),
    (("spectrum", "--preset", "fig4a", "--mode", "hot", "--grid", "-1:1:3"),
     {"medium": {"v_doppler": 1e308}}),
    (("spectrum", "--preset", "fig6", "--vd", "1e308", "--grid", "-1:1:3"), {}),
    (("spectrum", "--preset", "fig4a", "--mode", "hot", "--grid", "-1:1:3"), NODE_WINDOW),
    (("spectrum", "--preset", "fig6", "--vd", "6.2e306", "--grid", "-1:1:3"), NODE_WINDOW),
    (("calibrate", "--preset", "fig8ab", "--mode", "hot", "--target", "1600"), NODE_WINDOW),
], ids=["hot-v_doppler", "hot-omega_2", "crossover-omega_2",
        "hot-v_doppler-nodes", "vd-sweep-nodes",
        "hot-v_doppler-window", "vd-sweep-window", "calibrate-window"])
def test_overflow_in_hot_average_is_not_a_pole(tmp_path, capsys, argv, doc):
    # overflowing Doppler nodes (v_doppler 1e308 times a node > 1) or
    # fields are no real-axis pole: the average reports the overflow
    # itself, and the cold half of crossover names the same error
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, "--config", str(path))
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: CouplingOverflow:")
    assert len(err.splitlines()) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if doc is NODE_WINDOW:
        assert "steady-state matrix overflows" in err


# the hot average at a huge thermal width: a node that carries weight
# pushes the steady-state matrix past its condition limit (SingularSystem,
# not a claimed pole on the real axis); where only nodes of zero weight
# would, they are not evaluated and the node doubling runs out instead
SINGULAR_FAR_NODE = re.escape("SingularSystem: steady-state matrix condition number ") + (
    r"\S+ exceeds 1\.0e\+12 at shifted probe detuning d_p = \S+")
NOT_CONVERGED = re.escape("QuadratureNotConverged: Gauss-Hermite average not converged "
                          "to 1e-08 within 16384 nodes")


# 1e11 fails at a weighted node (SingularSystem); at 1e9 only zero-weight
# nodes would, so the refinement runs out first (QuadratureNotConverged)
@pytest.mark.parametrize("v_doppler,error", [(1e9, NOT_CONVERGED), (1e11, SINGULAR_FAR_NODE)],
                         ids=["1e9", "1e11"])
def test_ill_conditioned_far_nodes_name_singular_system(tmp_path, capsys, v_doppler, error):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"medium": {"v_doppler": v_doppler}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "spectrum", "--preset", "fig2a", "--mode", "hot",
                             "--grid", "-1:1:3", "--config", str(path))
    assert code == 3 and out == ""
    assert re.fullmatch(f"numerical failure: {error}\n", err)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# the hot row at 1e12 fails at a weighted node (SingularSystem); at 1e11
# (and below) the refinement runs out of nodes first (QuadratureNotConverged)
@pytest.mark.parametrize("v_doppler,error", [(1e11, NOT_CONVERGED), (1e12, SINGULAR_FAR_NODE)],
                         ids=["1e11", "1e12"])
def test_ill_conditioned_hot_delay_row_names_singular_system(tmp_path, capsys, v_doppler,
                                                             error):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"medium": {"v_doppler": v_doppler}}))
    code, out, err = run(capsys, "delay", "--preset", "fig7", "--omega3", "1",
                         "--mode", "both", "--config", str(path))
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    cold, hot = rows
    assert cold["mode"] == "cold" and cold["error"] == ""
    assert hot["mode"] == "hot" and hot["n_g"] == ""
    assert re.fullmatch(error, hot["error"])


def test_closed_stdout_pipe_exits_0_without_traceback():
    # `chiralight spectrum ... | head -1`: the reader leaves after one line
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(chiralight.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "chiralight.cli", "spectrum", "--preset", "fig2a",
         "--grid", "-10:10:20001"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert first.startswith(b"delta_p,mode,v_doppler,")
    assert err == b""


def test_out_of_memory_is_a_named_numerical_failure(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.12 GiB for an array")

    monkeypatch.setattr(optics, "group_index_curve", exhausted)
    code, out, err = run(capsys, "spectrum", "--preset", "fig2a", "--grid", "0:1:3")
    assert code == 3 and out == ""
    assert err == "numerical failure: MemoryError: Unable to allocate 1.12 GiB for an array\n"


@pytest.mark.parametrize("argv", [
    ("spectrum", "--preset", "fig2a", "--grid", "-1:1:5", "--out", None),
    ("preset-dump", "fig2a", "--out", None),
    ("preset-dump", "fig2a", "--out", ""),  # an empty path is a path, not "no --out"
])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    # None stands for a directory, which cannot be opened for writing
    code, out, err = run(capsys, *(str(tmp_path) if a is None else a for a in argv))
    _assert_named_config_error(code, out, err, "ConfigurationError")
    assert "cannot write --out" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, target", [
    (("spectrum", "--preset", "fig2a", "--grid", "-1:1:5", "--out", "/dev/full"),
     "--out /dev/full"),
    (("preset-dump", "--out", "/dev/full"), "--out /dev/full"),
    (("preset-dump",), "stdout"),  # `chiralight preset-dump > /dev/full`
])
def test_full_device_exits_2_without_traceback(argv, target):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(chiralight.__file__).parents[1])}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "chiralight.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert err.startswith(
        f"configuration error: ConfigurationError: cannot write {target}: ")
    assert len(err.splitlines()) == 1


def test_cli_sees_numpy_values_without_importing_numpy():
    # numpy's floating scalars of every width become plain floats; its
    # integers and booleans, and Python's, pass through as they are
    values = [np.float64(-0.0), np.float32(0.5), np.float16(-2), np.longdouble(1),
              np.int64(3), np.bool_(True), True, 7]
    out = _jsonable(values)
    assert [type(v) for v in out[:4]] == [float] * 4
    assert json.dumps(out[:4]) == "[0.0, 0.5, -2.0, 1.0]"
    assert all(a is b for a, b in zip(out[4:], values[4:]))
    # parse_grid's limit is numpy's largest array of doubles
    assert sys.maxsize // 8 == np.iinfo(np.intp).max // np.dtype(float).itemsize


def test_negative_zero_prints_as_zero(tmp_path, capsys):
    assert _fmt(-0.0) == _fmt(np.float64(-0.0)) == "0"
    assert json.dumps(_jsonable({"a": [-0.0, np.float64(-0.0)]})) == '{"a": [0.0, 0.0]}'
    # with omega_1 = omega_3 = 0 some response components are exact zeros
    # whose sign follows the arithmetic route
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"system": {"omega_1": 0, "omega_3": 0}}))
    argv = ("spectrum", "--preset", "fig2a", "--grid", "-1:1:3", "--config", str(cfg))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    _, rows = parse_csv(out)
    assert "0" in {v for r in rows for v in r.values()}
    assert "-0" not in {v for r in rows for v in r.values()}
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert "-0.0," not in out and "-0.0\n" not in out


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract

EDGE = ("nan", "inf", "-inf", "0", "-1", "")
AN_EXISTING_DIRECTORY = str(pathlib.Path(__file__).parent)


def _run_isolated(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@st.composite
def cold_argv(draw):
    """argv of a cold (fast) subcommand with edge values in its flags."""
    edge = st.sampled_from(EDGE)
    maybe = st.booleans()
    command = draw(st.sampled_from(("spectrum", "delay", "pulse", "calibrate")))
    argv = [command, "--preset", "fig2a"]
    if command == "spectrum":
        count = draw(st.sampled_from(("3", "0", "-1", "", "nan") + HUGE_COUNTS))
        argv += ["--mode", "cold", "--grid",
                 f"{draw(st.sampled_from(EDGE + ('-1.5', '1e308', '-1e308')))}:"
                 f"{draw(st.sampled_from(EDGE + ('1.5', '1e308', '-1e308')))}:{count}"]
        if draw(maybe):
            argv += ["--vd", ",".join(draw(st.lists(edge, max_size=2)))]
    elif command == "delay":
        argv += ["--mode", "cold",
                 "--omega3", ",".join(draw(st.lists(edge, max_size=3)))]
    elif command == "pulse":
        argv += ["--mode", "cold", "--tau0", draw(st.sampled_from(EDGE + ("5.5",))),
                 "--delta", draw(st.sampled_from(EDGE + ("2e9",)))]
    else:
        argv += ["--target", draw(st.sampled_from(EDGE + ("1607.5",)))]
        if draw(maybe):
            argv += ["--delta-p", draw(edge)]
        if draw(maybe):
            argv += ["--bracket", f"{draw(edge)}:{draw(st.sampled_from(EDGE + ('10',)))}"]
    if command != "calibrate" and draw(maybe):
        argv += ["--format", "json"]
    if draw(maybe):
        argv += ["--out", AN_EXISTING_DIRECTORY]
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=cold_argv())
@example(["spectrum", "--preset", "fig2a", "--mode", "cold", "--grid", "1e308:-1e308:3"])
def test_fuzzed_cli_keeps_exit_code_contract(argv):
    code, out, err = _run_isolated(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    assert _run_isolated(argv) == (code, out, err)


# Values a hand-written --config may carry: wrong types, nulls, a
# 400-digit integer and magnitudes at the ends of the double range.
HUGE_INT = int("9" * 400)
CONFIG_VALUES = (None, "1", [], {}, True, 0, -1, 0.5, 2.0, 1e300, -1e300,
                 1e-300, -1e-300, HUGE_INT, -HUGE_INT, float("nan"), float("inf"))
CONFIG_COMMANDS = (
    ("spectrum", "--mode", "cold", "--grid", "-1:1:5"),
    ("delay", "--mode", "cold"),
    ("pulse", "--mode", "cold"),
    ("calibrate", "--target", "1607.5"),
)


def _omega_1_examples(test):
    """omega_1 on both sides of the causality threshold sqrt(0.08) ~ 0.283
    of the fig2a family (docs/causality.md), for every command."""
    for command in CONFIG_COMMANDS:
        for omega_1 in (0.28, 0.30, 3.0):
            test = example(command, True, {"system": {"omega_1": omega_1}})(test)
    return test


def _config_keys(params):
    return st.sampled_from(sorted(params.__dataclass_fields__) + ["extra_key"])


@st.composite
def config_doc(draw):
    """A --config document: every alpha sign, extreme values, bad layouts."""
    value = st.sampled_from(CONFIG_VALUES)
    system = draw(st.dictionaries(_config_keys(SystemParams), value, max_size=3))
    system.update(draw(st.fixed_dictionaries({}, optional={
        f"alpha_{i}": st.sampled_from((1, -1, 1.0, -1.0)) for i in (1, 2, 3)})))
    medium = draw(st.dictionaries(_config_keys(MediumParams), value, max_size=3))
    doc = {"system": system, "medium": medium}
    layout = draw(st.sampled_from(("plain",) * 4 + ("null", "list", "extra", "scalar")))
    if layout == "null":
        doc[draw(st.sampled_from(("system", "medium")))] = None
    elif layout == "list":
        doc["medium"] = [medium]
    elif layout == "extra":
        doc["extra_section"] = {}
    elif layout == "scalar":
        doc = draw(value)
    return doc


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(CONFIG_COMMANDS), preset=st.booleans(),
       doc=config_doc())
@example(CONFIG_COMMANDS[0], True, {"system": {"omega_1": HUGE_INT}})
@example(CONFIG_COMMANDS[0], True, {"medium": {"density_coupling": 1e300}})
@example(CONFIG_COMMANDS[0], False, {"system": {"omega_2": 1e200}})
@_omega_1_examples
def test_fuzzed_config_keeps_exit_code_contract(tmp_path_factory, command, preset, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed_config.json"
    path.write_text(json.dumps(doc))
    argv = [*command, *(("--preset", "fig2a") if preset else ()), "--config", str(path)]
    code, out, err = _run_isolated(argv)
    assert code in (0, 2, 3), (argv, doc, code, err)
    assert "Traceback" not in err
    assert _run_isolated(argv) == (code, out, err)
