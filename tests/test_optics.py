"""Tests for the chiral index, dispersion and delay layer.

Synthetic spectra with closed-form derivatives pin the differentiation
and branch-tracking logic independently of the response model; preset
configurations then cover the sign conventions (subluminal delay vs
superluminal advance) end to end.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chiralight import optics, params, presets
from chiralight.cli import main
from chiralight.errors import (BranchJump, GridTooCoarse, NoCrossoverInRange,
                               NoRootInBracket, RootSearchFailed)
from chiralight.params import C_LIGHT, with_overrides
from chiralight.response import OpticalResponse


def _flat(chi_e=0.0, chi_m=0.0, xi_eh=0.0, xi_he=0.0):
    """A one-point response (1-element component arrays)."""
    return OpticalResponse(*(np.array([x], dtype=complex)
                             for x in (chi_e, chi_m, xi_eh, xi_he)))


# ---------------------------------------------------------------------------
# refractive index


def test_zero_response_index_is_unity():
    (n,) = optics.refractive_index(_flat(), np.zeros(1))
    assert n == 1.0 + 0.0j
    z = np.zeros(7, dtype=complex)
    n = optics.refractive_index(OpticalResponse(z, z, z, z), np.arange(7.0))
    assert np.array_equal(n, np.ones(7, dtype=complex))


def test_symmetric_cross_coupling_has_no_imaginary_offset():
    # When xi_EH == xi_HE the difference term vanishes and the index is
    # a plain square root of the material factor.
    chi_e, chi_m, xi = 0.2 + 0.05j, 1.0e-4 + 1.0e-5j, 0.01 + 0.002j
    (n,) = optics.refractive_index(_flat(chi_e, chi_m, xi, xi), np.zeros(1))
    expected = np.sqrt((1 + chi_e) * (1 + chi_m) - xi**2)
    assert n == pytest.approx(expected, rel=1e-14)


def test_antisymmetric_cross_coupling_adds_imaginary_part():
    xi_eh, xi_he = 0.02, -0.01
    (n,) = optics.refractive_index(_flat(0.0, 0.0, xi_eh, xi_he), np.zeros(1))
    root = np.sqrt(1.0 - 0.25 * (xi_eh + xi_he) ** 2)
    assert n == pytest.approx(root + 0.5j * (xi_eh - xi_he), rel=1e-14)


def test_branch_tracking_through_sign_change():
    # chi_e sweeping 0 -> -2 drives the radicand through zero; the
    # tracked root must cross onto the imaginary axis continuously
    # instead of snapping back to the principal branch.
    chi_e = np.linspace(0.0, -2.0, 100).astype(complex)
    zero = np.zeros_like(chi_e)
    n = optics.refractive_index(OpticalResponse(chi_e, zero, zero, zero),
                                np.arange(100.0))
    assert n[0] == 1.0 + 0.0j
    assert n[-1] == pytest.approx(1.0j, abs=1e-12)
    assert np.abs(np.diff(n)).max() < optics.BRANCH_JUMP_LIMIT


def test_branch_jump_detected_on_coarse_path():
    chi_e = np.array([0.0, -3.0], dtype=complex)
    zero = np.zeros_like(chi_e)
    with pytest.raises(BranchJump, match="between Delta_p = -0.5 and 2.25$"):
        optics.refractive_index(OpticalResponse(chi_e, zero, zero, zero),
                                np.array([-0.5, 2.25]))


# A cold_scan benchmark draw above the causality threshold
# (omega_1^2/(4*g12*gall) = 4.96), copied here so the test stands alone.
ABOVE_THRESHOLD_DRAW = {
    "system": {"omega_1": 4.031265447525243, "omega_2": 0.38414618250488797,
               "omega_3": 3.4329888017375967, "gamma_1": 0.134677631483683,
               "gamma_2": 1.0521442705535573, "gamma_3": 1.3389596131245323,
               "gamma_4": 0.23631306411279654, "delta_b": 0.7385566950016345,
               "delta_1": -0.17546367551617115, "delta_2": 0.0019249193547563603,
               "phi": 5.204433762927935, "alpha_1": -1.0, "alpha_2": 1.0, "alpha_3": 1.0},
    "medium": {"density_coupling": 1.1009904237496486, "length_L": 0.0010172015438318538},
}


def test_tracked_root_continues_where_the_principal_root_crosses_the_cut():
    """Tracking is not the principal root above the causality threshold.

    On this draw the radicand w crosses the negative real axis between
    the stencil points 1.602 and 1.608: the tracked root continues, and
    np.sqrt(w + 0.0) jumps by 2.05 there, so replacing the tracking by
    the principal root (ROADMAP item 15) would raise BranchJump here.
    """
    cfg = params.from_dict(ABOVE_THRESHOLD_DRAW)
    grid = np.linspace(-10.0, 10.0, 2001)
    optics.group_index_curve(cfg, grid)  # no BranchJump
    path = np.unique(grid[:, None] + optics.DEFAULT_STEP * optics._STENCIL)
    r = optics.spectrum(cfg, path)
    w = (1.0 + r.chi_e) * (1.0 + r.chi_m) - 0.25 * (r.xi_eh + r.xi_he) ** 2
    jumps = np.abs(np.diff(np.sqrt(w + 0.0)))
    i = int(np.argmax(jumps))
    assert jumps[i] > optics.BRANCH_JUMP_LIMIT
    assert path[i] == pytest.approx(1.602) and path[i + 1] == pytest.approx(1.608)
    assert w[i].real < 0.0 and w[i].imag < 0.0 < w[i + 1].imag


def test_root_is_anchored_at_the_largest_radicand_past_a_cut_crossing():
    """w = 1 + chi_e winds from arg 0.8 pi through the negative real axis
    to -2i, its largest point.  Tracked from the start, the root reaches
    -2i with Re < 0; the anchor flips the whole path onto Re >= 0 there."""
    s = np.linspace(0.0, 1.0, 400)
    w = (0.5 + 1.5 * s) * np.exp(1j * np.pi * (0.8 + 0.7 * s))
    zero = np.zeros_like(w)
    n = optics.refractive_index(OpticalResponse(w - 1.0, zero, zero, zero), s)
    assert np.abs(np.diff(n)).max() < optics.BRANCH_JUMP_LIMIT
    assert n[-1] == pytest.approx(np.sqrt(2.0) * np.exp(-0.25j * np.pi), rel=1e-12)
    assert n[0] == pytest.approx(-np.sqrt(w[0]), rel=1e-12)


# ---------------------------------------------------------------------------
# derivatives and group index on synthetic spectra


def test_grid_derivative_matches_lorentzian_closed_form():
    h = 1e-3
    x = np.arange(-3.0, 3.0 + h / 2, h)
    y = 1.0 / (1.0 + x**2)
    dy_true = -2.0 * x / (1.0 + x**2) ** 2
    d, err = optics.grid_derivative(y, h)
    inner = slice(2, -2)
    assert np.abs(d - dy_true)[inner].max() < 1e-9
    assert np.nanmax(err) < 1e-5
    assert np.isnan(err[:2]).all() and np.isnan(err[-2:]).all()


def test_grid_derivative_needs_five_samples():
    with pytest.raises(ValueError, match="5 samples"):
        optics.grid_derivative(np.ones(4), 0.1)


def test_group_index_flat_spectrum_equals_real_index():
    grid = np.linspace(0.0, 1.0, 64)
    n = np.full(64, 1.25 + 0.5j)
    assert np.allclose(optics.group_index(grid, n, 1.0e4), 1.25, rtol=0, atol=1e-12)


def test_group_index_linear_spectrum_is_constant():
    # For n = a + b*Delta the detuning dependence cancels exactly:
    # N_g = Re[a + b*omega_14] everywhere.
    omega_14, a, b = 1.0e4, 1.0 + 0.0j, 2.0e-4
    grid = np.linspace(-1.0, 1.0, 41)
    ng = optics.group_index(grid, a + b * grid, omega_14)
    assert np.allclose(ng, a.real + b * omega_14, rtol=1e-12)


def test_group_index_dispersive_closed_form():
    a, width, omega_14 = 0.01, 2.0, 1.0e4
    grid = np.linspace(-1.0, 1.0, 2001)
    n = 1.0 + a / (grid + 1j * width)
    ng = optics.group_index(grid, n, omega_14)
    ng_true = np.real(n + (omega_14 - grid) * (-a / (grid + 1j * width) ** 2))
    inner = slice(2, -2)
    rel = np.abs(ng - ng_true)[inner] / np.abs(ng_true)[inner]
    assert rel.max() < 1e-6


# ---------------------------------------------------------------------------
# dispersion points on preset configurations


def test_subluminal_preset_gives_delay():
    cfg = presets.get("fig2a").config()
    pt = optics.group_index_at(cfg, cfg.system.delta_p, mode="cold")
    assert pt.N_g > 1.0
    assert pt.tau > 0.0
    assert pt.v_g * pt.N_g == pytest.approx(C_LIGHT, rel=1e-12)
    assert pt.tau == pytest.approx(
        cfg.medium.length_L * (pt.N_g - 1.0) / C_LIGHT, rel=1e-12)


def test_superluminal_preset_gives_advance():
    cfg = presets.get("fig4a").config()
    pt = optics.group_index_at(cfg, cfg.system.delta_p, mode="cold")
    assert pt.N_g < 0.0
    assert pt.tau < 0.0
    assert pt.v_g * pt.N_g == pytest.approx(C_LIGHT, rel=1e-12)


def test_abstract_delays_at_unit_coupling():
    """The abstract's hot delay of 896 ns and cold advance of -31 ns.

    Both come out of the model at the uncalibrated default kappa_e = 1:
    the hot fig8ab delay is 902.22 ns and the cold fig7 delay at
    omega_3 = 4 is -31.09 ns.  At the calibrated kappa_e of criteria
    6-8 the same quantities read 796.69 ns and -184.64 ns.  Whether
    kappa_e = 1 is the paper's own reading is open; see
    docs/group-index-discrepancy.md for the calibrated family.
    """
    hot = presets.get("fig8ab").config()
    cold = with_overrides(presets.get("fig7").config(), system={"omega_3": 4.0})
    assert hot.medium.density_coupling == cold.medium.density_coupling == 1.0
    tau_hot = optics.group_index_at(hot, hot.system.delta_p, mode="hot").tau
    tau_cold = optics.group_index_at(cold, cold.system.delta_p, mode="cold").tau
    assert tau_hot == pytest.approx(896e-9, rel=0.01)
    assert tau_cold == pytest.approx(-31e-9, rel=0.01)


def test_group_index_at_matches_curve():
    cfg = presets.get("fig2a").config()
    grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    curve = optics.group_index_curve(cfg, grid, mode="cold")
    for i, dp in enumerate(grid):
        pt = optics.group_index_at(cfg, dp, mode="cold")
        assert pt.N_g == pytest.approx(curve.N_g[i], rel=1e-12)
        assert pt.n_complex == pytest.approx(curve.n_complex[i], rel=1e-12)


def test_branch_stays_continuous_across_preset_spectrum():
    cfg = presets.get("fig2a").config()
    grid = np.linspace(-10.0, 10.0, 1001)
    n = optics.refractive_index(optics.spectrum(cfg, grid, mode="cold"), grid)
    assert np.abs(np.diff(n)).max() < 0.1


def _branch_jump_cfg():
    """fig2a with every decay rate and control field at 1e-3: the index
    jumps branch right beside delta_p = 0."""
    rates = ("gamma_1", "gamma_2", "gamma_3", "gamma_4",
             "omega_1", "omega_2", "omega_3")
    return with_overrides(presets.get("fig2a").config(),
                          system={k: 1e-3 for k in rates})


def test_branch_jump_names_the_detunings():
    # the stencil around the single requested point is what jumps; the
    # message gives its detunings, not positions in an internal array
    with pytest.raises(BranchJump, match="between Delta_p = 0 and 0.001$"):
        optics.group_index_at(_branch_jump_cfg(), 0.0)


def test_coarse_stencil_raises():
    # a Lorentzian of width 1e-3 is as narrow as the fixed step, so the
    # two Richardson levels disagree at its center (0.025 vs 0.15)
    cfg = with_overrides(
        presets.get("fig2a").config(),
        system={"gamma_1": 1e-3, "gamma_2": 1e-3, "gamma_3": 1e-3,
                "gamma_4": 1e-3, "omega_1": 0.0, "omega_2": 0.0, "omega_3": 0.0},
        medium={"density_coupling": 1e-6})
    with pytest.raises(GridTooCoarse, match="1%.*step h=0.001"):
        optics.group_index_curve(cfg, [0.0])


@pytest.mark.parametrize("mode", ["cold", "hot"])
def test_delta_1_alpha_1_and_probe_amplitudes_enter_no_output(mode):
    # no diagonal term of the coherence equations carries d_1, and the
    # betas are linear response coefficients, free of omega_p and omega_b
    cfg = presets.get("fig8ab").config()
    ref = optics.group_index_at(cfg, 0.0, mode=mode).N_g
    for over in ({"delta_1": 0.3}, {"alpha_1": -1}, {"omega_p": 7.0}, {"omega_b": 0.0}):
        assert optics.group_index_at(with_overrides(cfg, system=over), 0.0, mode=mode).N_g == ref


# ---------------------------------------------------------------------------
# delay tables and crossover search


def test_delay_table_values_and_annotations():
    cfg_a = presets.get("fig2a").config()
    cfg_b = presets.get("fig4a").config()
    rows = optics.delay_table([("slow", cfg_a, "cold"), ("fast", cfg_b, "cold")])
    assert [r["scenario"] for r in rows] == ["slow", "fast"]
    for row, cfg in zip(rows, (cfg_a, cfg_b)):
        assert row["error"] is None
        pt = optics.group_index_at(cfg, cfg.system.delta_p, mode="cold")
        assert row["n_g"] == pytest.approx(pt.N_g, rel=1e-12)
        assert row["tau_ns"] == pytest.approx(pt.tau * 1e9, rel=1e-12)

    bad = optics.delay_table([("jump", _branch_jump_cfg(), "cold")])
    assert bad[0]["n_g"] is None
    assert bad[0]["error"].startswith("BranchJump: ")


def _plant_group_indices(monkeypatch, cold, hot):
    """Replace the group index by cold(omega_3) / hot(omega_3)."""
    def fake(cfg, delta_p, mode="cold"):
        ng = (cold if mode == "cold" else hot)(cfg.system.omega_3)
        return optics.DispersionPoint(ng, ng, ng, C_LIGHT / ng, 0.0)
    monkeypatch.setattr(optics, "group_index_at", fake)


def test_planted_crossover_located(monkeypatch):
    _plant_group_indices(monkeypatch, lambda o3: 3.0 - o3, lambda o3: 1.0)
    root = optics.superluminal_crossover(presets.get("fig2a").config(), 1.5, 5.0)
    assert root == pytest.approx(2.0, abs=1e-3)


def test_crossover_evaluates_each_point_once(monkeypatch):
    _plant_group_indices(monkeypatch, lambda o3: 3.0 - o3, lambda o3: 1.0)
    planted, calls = optics.group_index_at, []

    def counted(cfg, delta_p, mode="cold"):
        calls.append((mode, cfg.system.omega_3))
        return planted(cfg, delta_p, mode=mode)

    monkeypatch.setattr(optics, "group_index_at", counted)
    optics.superluminal_crossover(presets.get("fig2a").config(), 1.5, 5.0)
    assert calls and len(calls) == len(set(calls))


def test_no_crossover_in_range_raises(monkeypatch):
    _plant_group_indices(monkeypatch, lambda o3: 2.0, lambda o3: 1.0)
    with pytest.raises(NoCrossoverInRange, match="same sign"):
        optics.superluminal_crossover(presets.get("fig2a").config(), 0.1, 0.2)


def test_nan_crossover_gap_exits_3(monkeypatch, capsys):
    _plant_group_indices(monkeypatch, lambda o3: 3.0 - o3,
                         lambda o3: math.nan if 1.5 < o3 < 5.0 else 1.0)
    assert main(["crossover", "--preset", "fig7", "--omega3-range", "1.5:5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: RootSearchFailed: the function "
                          "is NaN at x = ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# root search


def _recorded(f):
    """f and the list of points it is called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def _planted_root_search(gap, lo=0.0, hi=1.0, xtol=1e-12):
    return optics._brent(gap, lo, hi, AssertionError, xtol)


@pytest.mark.parametrize("end", [0.0, 1.0])
def test_nan_at_a_bracket_end_fails_before_the_search(end):
    gap, calls = _recorded(lambda x: math.nan if x == end else x - 0.5)
    with pytest.raises(RootSearchFailed,
                       match=f"^the function is NaN at x = {end}; "):
        _planted_root_search(gap)
    assert calls == ([0.0] if end == 0.0 else [0.0, 1.0])


def test_nan_inside_the_bracket_names_the_point():
    gap, calls = _recorded(lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5)
    with pytest.raises(RootSearchFailed,
                       match=r"^the function is NaN at x = 0\.5; "):
        _planted_root_search(gap)
    assert calls == [0.0, 1.0, 0.5]


def test_iteration_limit_names_the_count():
    # a step has no root to interpolate: Brent bisects 100 times, far
    # short of the 1e-300 tolerance
    gap, calls = _recorded(lambda x: -1.0 if x < 0 else 1.0)
    with pytest.raises(RootSearchFailed,
                       match="^no convergence after 100 iterations "):
        _planted_root_search(gap, -1.0, 2.0, xtol=1e-300)
    assert len(calls) == 2 + optics.ROOT_MAXITER


_GAPS = {
    "linear": lambda s, r, w: lambda x: s * (x - r),
    "cubic": lambda s, r, w: lambda x: s * (x - r) ** 3,
    "tanh": lambda s, r, w: lambda x: math.tanh(s * (x - r)),
    # non-monotone: several roots and turning points inside the bracket
    "wiggly": lambda s, r, w: lambda x: s * (x - r) + math.sin(w * x),
    "step": lambda s, r, w: lambda x: s if x > r else -s,
}


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from(sorted(_GAPS)),
       # extreme scales underflow Brent's divided differences to zero
       scale=st.one_of(st.floats(-6, 6), st.floats(-300, 300)).map(
           lambda e: 10.0 ** e),
       root=st.floats(-10, 10), wiggle=st.floats(0.5, 20),
       lo=st.floats(-20, 20), hi=st.floats(-20, 20),
       zero_end=st.sampled_from([None, "lo", "hi"]),
       xtol=st.floats(-30, 0).map(lambda e: 10.0 ** e))
# a coarse xtol, where the "- delta" of the step acceptance test decides
@example(kind="wiggly", scale=0.01, root=-6.79, wiggle=12.0, lo=7.7, hi=14.4,
         zero_end=None, xtol=0.1)
# the divided differences underflow to zero: the step bisects
@example(kind="cubic", scale=1e-120, root=0.3, wiggle=1.0, lo=0.0, hi=1.0,
         zero_end=None, xtol=1e-12)
# both ends underflow to zero
@example(kind="cubic", scale=1e-300, root=0.0, wiggle=1.0, lo=-1e-10, hi=1e-10,
         zero_end=None, xtol=1e-12)
def test_brent_matches_scipy_brentq(kind, scale, root, wiggle, lo, hi,
                                    zero_end, xtol):
    from scipy.optimize import brentq
    f = _GAPS[kind](scale, root, wiggle)
    if zero_end is not None:
        zero, raw = (lo if zero_end == "lo" else hi), f
        f = lambda x: 0.0 if x == zero else raw(x)  # noqa: E731
    g_lo, g_hi = f(lo), f(hi)
    assume(lo != hi and (g_lo == 0 or g_hi == 0
                         or math.copysign(1, g_lo) != math.copysign(1, g_hi)))
    ours, our_calls = _recorded(f)
    theirs, their_calls = _recorded(f)
    try:
        expected = brentq(theirs, lo, hi, xtol=xtol)
    except RuntimeError:  # SciPy's iteration limit
        with pytest.raises(RootSearchFailed, match="after 100 iterations"):
            optics._brent(ours, lo, hi, NoRootInBracket, xtol)
    else:
        if g_lo == 0 and g_hi == 0:  # SciPy returns lo
            with pytest.raises(NoRootInBracket):
                optics._brent(ours, lo, hi, NoRootInBracket, xtol)
        else:
            got, g_root = optics._brent(ours, lo, hi, NoRootInBracket, xtol)
            assert got == expected and g_root == f(got)
    assert our_calls == their_calls


# ---------------------------------------------------------------------------
# density-coupling calibration


@pytest.mark.parametrize("argv, delta_p, mode", [
    (("--target", "1415.65"), None, "cold"),
    (("--target", "1618.15", "--mode", "hot", "--quantity", "n_0"), 0.0, "hot"),
    (("--target", "1400", "--delta-p", "0.05"), 0.05, "cold"),
], ids=["cold-N_g", "hot-n_0", "cold-delta-p"])
def test_calibration_equals_cli_bit_for_bit(capsys, argv, delta_p, mode):
    assert main(["calibrate", "--preset", "fig8ab", *argv]) == 0
    printed = json.loads(capsys.readouterr().out)["calibration"]
    cfg = presets.get("fig8ab").config()
    delta_p = cfg.system.delta_p if delta_p is None else delta_p
    kappa, achieved = optics.calibrate_coupling(
        cfg, printed["target_n_g"], delta_p, 1e-8, 1e4, mode=mode)
    assert (kappa, achieved) == (printed["kappa_e"], printed["achieved_n_g"])


def test_calibration_evaluates_each_coupling_once(monkeypatch):
    real, calls = optics.group_index_at, []

    def counted(cfg, delta_p, mode="cold"):
        calls.append(cfg.medium.density_coupling)
        return real(cfg, delta_p, mode=mode)

    monkeypatch.setattr(optics, "group_index_at", counted)
    cfg = presets.get("fig8ab").config()
    kappa, _ = optics.calibrate_coupling(cfg, 1415.65, 0.0, 1e-8, 1e4)
    assert kappa in calls and len(calls) == len(set(calls))


def test_unreachable_calibration_target_raises():
    message = ("N_g(1e-08) - target = -1e+09 and N_g(10000) - target = "
               "-9.99771e+08 have the same sign; the target group index "
               "1e+09 is not reachable in this bracket")
    with pytest.raises(NoRootInBracket, match=f"^{re.escape(message)}$"):
        optics.calibrate_coupling(presets.get("fig8ab").config(), 1e9,
                                  0.0, 1e-8, 1e4)
