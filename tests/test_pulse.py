"""Tests for Gaussian pulse propagation and the pulse metrics.

The analytic first-order-dispersion envelope and the FFT path are
checked against each other and against closed-form Fourier pairs; the
full-medium wavenumber is tied back to the dispersion layer through
its slope and curvature at band center.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralight import optics, presets, pulse
from chiralight.errors import (AliasingDetected, BadPulseSpec, FlatTrace,
                              WindowTooNarrow)
from chiralight.params import C_LIGHT, with_overrides
from oracles import (dft, full_band_propagation, l2_difference, quadratic_wavenumber,
                     two_band_checks_reject)

L = 0.06


# ---------------------------------------------------------------------------
# input envelope and spectrum


def test_input_spectrum_peak_value_and_location():
    ps = pulse.PulseSpec()
    nu = ps.delta + np.linspace(-40.0, 40.0, 801) / ps.tau_0
    samples = pulse.input_spectrum(ps, nu)
    i = int(np.argmax(np.abs(samples)))
    assert nu[i] == pytest.approx(ps.delta, abs=(nu[1] - nu[0]))
    assert samples[i] == pytest.approx(ps.tau_0 / np.sqrt(2.0), rel=1e-12)
    # 1/e point of the amplitude sits at nu = delta + 2/tau_0
    probe = (ps.tau_0 / np.sqrt(2.0)) * np.exp(-1.0)
    j = int(np.argmin(np.abs(nu - (ps.delta + 2.0 / ps.tau_0))))
    assert samples[j] == pytest.approx(probe, rel=1e-6)


def test_input_spectrum_symmetric_when_unshifted():
    ps = pulse.PulseSpec(delta=0.0)
    nu = np.linspace(-30.0, 30.0, 601) / ps.tau_0
    s = pulse.input_spectrum(ps, nu)
    assert np.allclose(s, s[::-1], rtol=1e-12, atol=0)


def test_dft_of_envelope_matches_analytic_spectrum():
    # Forward transform of the sampled envelope reproduces the analytic
    # spectrum up to the sqrt(2*pi) convention factor.
    ps = pulse.PulseSpec()
    env = pulse.input_envelope(ps, pulse.time_grid(ps))
    nu, spec = dft(env.grid, env.samples)
    ref = pulse.input_spectrum(ps, nu)
    mask = np.abs(ref) > 1e-6 * np.max(np.abs(ref))
    ratio = spec[mask] / ref[mask]
    assert np.allclose(ratio, np.sqrt(2.0 * np.pi), rtol=1e-8)


def test_dft_idft_roundtrip():
    ps = pulse.PulseSpec()
    env = pulse.input_envelope(ps, pulse.time_grid(ps))
    nu, spec = dft(env.grid, env.samples)
    back = pulse.idft(env.grid, nu, spec)
    assert np.allclose(back, env.samples, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# analytic propagation


def test_zero_length_is_identity():
    ps = pulse.PulseSpec()
    t = pulse.time_grid(ps)
    out = pulse.propagate_analytic(ps, 1415.65, 2.5e-15, 0.0, t)
    assert np.allclose(out.samples, pulse.input_envelope(ps, t).samples,
                       rtol=1e-12)


def test_vacuum_delay_is_transit_time():
    ps = pulse.PulseSpec()
    t = pulse.time_grid(ps, expected_peaks=(0.0, L / C_LIGHT))
    out = pulse.propagate_analytic(ps, 1.0, 0.0, L, t)
    m = pulse.pulse_metrics(pulse.input_envelope(ps, t), out)
    assert m["peak_shift"] == pytest.approx(L / C_LIGHT, rel=1e-5)
    assert m["width_ratio"] == pytest.approx(1.0, rel=1e-9)
    assert m["distortion"] < 1e-5


def test_group_arrival_includes_dispersion_shift():
    ps = pulse.PulseSpec()
    n_0, g_vd = 500.0, 5.0e-16
    Tg = L * n_0 / C_LIGHT + g_vd * L * ps.delta
    t = pulse.time_grid(ps, expected_peaks=(0.0, Tg))
    out = pulse.propagate_analytic(ps, n_0, g_vd, L, t)
    m = pulse.pulse_metrics(pulse.input_envelope(ps, t), out)
    assert m["peak_shift"] == pytest.approx(Tg, rel=1e-6)


def test_chirp_broadens_by_closed_form_factor():
    ps = pulse.PulseSpec()
    n_0, g_vd = 500.0, 5.0e-16
    Tg = L * n_0 / C_LIGHT + g_vd * L * ps.delta
    t = pulse.time_grid(ps, expected_peaks=(0.0, Tg))
    out = pulse.propagate_analytic(ps, n_0, g_vd, L, t)
    m = pulse.pulse_metrics(pulse.input_envelope(ps, t), out)
    xi = 2.0 * g_vd * L / ps.tau_0 ** 2
    assert m["width_ratio"] == pytest.approx(np.sqrt(1.0 + xi ** 2), rel=1e-3)


# ---------------------------------------------------------------------------
# numeric propagation and transform pairs


def test_numeric_matches_analytic_for_quadratic_wavenumber():
    ps = pulse.PulseSpec()
    n_0, g_vd = 500.0, 5.0e-16
    Tg = L * n_0 / C_LIGHT + g_vd * L * ps.delta
    t = pulse.time_grid(ps, expected_peaks=(0.0, Tg))
    analytic = pulse.propagate_analytic(ps, n_0, g_vd, L, t)
    numeric = pulse.propagate_numeric(ps, quadratic_wavenumber(n_0, g_vd), L, t)
    assert l2_difference(numeric.samples, analytic.samples) < 1e-9


def test_default_window_holds_the_group_delayed_peak():
    """Without t, the window is placed from the slope of Re k at band
    center: a 283 ns delay, past the 176 ns half-width of a window
    around t = 0, lands where the closed form puts it, unaliased."""
    ps = pulse.PulseSpec()
    n_0, g_vd = 1415.65, 5.0e-18
    numeric = pulse.propagate_numeric(ps, quadratic_wavenumber(n_0, g_vd), L)
    t = numeric.grid
    analytic = pulse.propagate_analytic(ps, n_0, g_vd, L, t)
    assert l2_difference(numeric.samples, analytic.samples) < 1e-9
    m = pulse.pulse_metrics(pulse.input_envelope(ps, t), numeric)
    assert m["peak_shift"] == pytest.approx(pulse.arrival_time(ps, n_0, g_vd, L), rel=1e-6)


class RecordingWavenumber:
    """A quadratic k_rel that keeps a copy of every frequency array it is given."""

    def __init__(self, n_0, g_vd):
        self.k_rel = quadratic_wavenumber(n_0, g_vd)
        self.calls = []

    def __call__(self, nu):
        self.calls.append(np.array(nu, copy=True))
        return self.k_rel(nu)


@pytest.mark.parametrize("given_t", [True, False])
def test_wavenumber_is_sampled_once_on_the_spectrum_support(given_t):
    ps = pulse.PulseSpec()
    k_rel = RecordingWavenumber(1415.65, 5.0e-18)
    t = pulse.time_grid(ps, expected_peaks=(0.0, L * 1415.65 / C_LIGHT)) if given_t else None
    out = pulse.propagate_numeric(ps, k_rel, L, t)
    nu = pulse.frequency_grid(ps, out.grid)
    support = nu[pulse.input_spectrum(ps, nu) != 0.0]
    assert 0 < support.size < nu.size
    dnu = 1.0 / ps.tau_0
    slope_calls = [] if given_t else [np.array([dnu]), np.array([-dnu])]
    assert len(k_rel.calls) == len(slope_calls) + 1
    for got, want in zip(k_rel.calls, slope_calls + [support]):
        assert got.dtype == want.dtype and np.array_equal(got, want)


COLD_PRESETS = sorted(presets.CATALOG)


def _bytes_or_error_name(propagate, ps, k_rel, length):
    try:
        trace = propagate(ps, k_rel, length)
    except Exception as exc:  # noqa: BLE001 -- the name is what is compared
        return type(exc).__name__
    return trace.grid.tobytes() + trace.samples.tobytes()


@settings(max_examples=40, deadline=None)
@given(preset=st.sampled_from(COLD_PRESETS), decade=st.floats(-9.5, -6.5),
       delta_tau=st.floats(-120.0, 120.0))
@example(preset="fig2a", decade=np.log10(5.5e-9), delta_tau=60.0)  # nu = 0 off the support
@example(preset="fig8ab", decade=-8.0, delta_tau=-57.0)
@example(preset="fig4a", decade=-7.0, delta_tau=0.0)
def test_support_sampling_keeps_the_full_band_bytes(preset, decade, delta_tau):
    # The Gaussian spectrum underflows to 0.0 beyond |nu - delta| ~ 54.6/tau_0,
    # so |delta_tau| > 54.6 leaves the carrier nu = 0 outside the support.
    tau_0 = 10.0 ** decade
    ps = pulse.PulseSpec(tau_0=tau_0, delta=delta_tau / tau_0)
    cfg = presets.get(preset).config()
    k_rel = pulse.medium_wavenumber(cfg, ps, mode="cold")
    length = cfg.medium.length_L
    assert (_bytes_or_error_name(pulse.propagate_numeric, ps, k_rel, length)
            == _bytes_or_error_name(full_band_propagation, ps, k_rel, length))


def test_hot_support_sampling_agrees_with_the_full_band_within_criterion_2():
    # Hot k_rel bits depend on which frequencies share a Doppler group,
    # so the hot routes agree to the dual-quadrature tolerance, not bitwise.
    cfg = presets.get("fig4a").config()
    ps = pulse.PulseSpec()
    k_rel = pulse.medium_wavenumber(cfg, ps, mode="hot")
    got = pulse.propagate_numeric(ps, k_rel, cfg.medium.length_L)
    want = full_band_propagation(ps, k_rel, cfg.medium.length_L, got.grid)
    peak = float(np.max(np.abs(want.samples)))
    assert float(np.max(np.abs(got.samples - want.samples))) <= 1e-8 * peak


def test_output_spectrum_is_transform_of_analytic_envelope():
    ps = pulse.PulseSpec()
    n_0, g_vd = 500.0, 5.0e-16
    Tg = L * n_0 / C_LIGHT + g_vd * L * ps.delta
    t = pulse.time_grid(ps, expected_peaks=(0.0, Tg))
    analytic = pulse.propagate_analytic(ps, n_0, g_vd, L, t)
    nu, spec = dft(t, analytic.samples)
    ref = (pulse.input_spectrum(ps, nu)
           * np.exp(-1j * quadratic_wavenumber(n_0, g_vd)(nu) * L))
    assert l2_difference(spec, ref) < 1e-6
    back = pulse.idft(t, nu, ref * np.sqrt(2.0 * np.pi))
    assert l2_difference(back, analytic.samples) < 1e-6


def test_medium_wavenumber_consistent_with_dispersion_layer():
    # Slope and curvature of the sampled k(nu) at band center must
    # reproduce the group index and the g_vd coefficient computed by
    # the dispersion layer from the same configuration.
    cfg = presets.get("fig2a").config()
    ps = pulse.PulseSpec(delta=0.0)
    k_rel = pulse.medium_wavenumber(cfg, ps, mode="cold")
    assert k_rel(np.array([0.0]))[0] == 0.0

    h = 1.0e5  # rad/s, i.e. 1e-4 detuning units
    pts = np.real(k_rel(np.array([-2 * h, -h, h, 2 * h])))
    slope = (8 * (pts[2] - pts[1]) - (pts[3] - pts[0])) / (12 * h)
    curv = (pts[2] + pts[1]) / h ** 2  # k(0) = 0 by construction
    coeff = optics.dispersion_coefficients(cfg, mode="cold")
    n_g0 = optics.group_index_at(cfg, 0.0, mode="cold").N_g
    assert slope * C_LIGHT == pytest.approx(n_g0, rel=1e-5)
    assert coeff["n_0"] == pytest.approx(n_g0, rel=1e-9)
    assert curv == pytest.approx(coeff["g_vd"], rel=1e-3)


@pytest.mark.parametrize("medium", [{"omega_14": 2.0e4}, {"gamma_unit": 2.0e9}])
def test_medium_wavenumber_carrier_is_the_medium_transition(medium):
    # k = (omega_0 + nu) n / c gives c Re dk/dnu = N_g only when the
    # carrier is omega_14*gamma_unit; a carrier fixed at 1e13 rad/s
    # would give half of N_g at omega_14 = 2e4.
    cfg = with_overrides(presets.get("fig4a").config(), medium=medium)
    k_rel = pulse.medium_wavenumber(cfg, pulse.PulseSpec(), mode="cold")
    dnu = 1.0e3  # rad/s
    k_m, k_p = np.real(k_rel(np.array([-dnu, dnu])))
    n_g = optics.group_index_at(cfg, 0.0, mode="cold").N_g
    assert C_LIGHT * (k_p - k_m) / (2 * dnu) == pytest.approx(n_g, rel=1e-6)


# SHA-256 of k_rel(nu).tobytes() on MEDIUM_WAVENUMBER_NU.  No CLI command
# reaches medium_wavenumber, so these digests are its byte-identity guard
# (numbers of this host's numpy/LAPACK build, as in test_cli_golden.py).
MEDIUM_WAVENUMBER_NU = np.array([-3.0e8, -1.0e6, 0.0, 2.5e5, 1.0e9])
MEDIUM_WAVENUMBER_SHA256 = {
    ("fig2a", "cold"): "67b97561080c9a82b765cab660ae60c3a08fd70f0fece4c0ab6051f6603f957d",
    ("fig4a", "hot"): "0c97c58fef28dd6b1289cfcfd83846b6923372ff61c5bdd04a3ec31612a22835",
}


@pytest.mark.parametrize("preset, mode", list(MEDIUM_WAVENUMBER_SHA256))
def test_medium_wavenumber_bytes_are_unchanged(preset, mode):
    k_rel = pulse.medium_wavenumber(presets.get(preset).config(), pulse.PulseSpec(), mode=mode)
    k = k_rel(MEDIUM_WAVENUMBER_NU)
    assert k.dtype == complex and k.shape == MEDIUM_WAVENUMBER_NU.shape
    assert hashlib.sha256(k.tobytes()).hexdigest() == MEDIUM_WAVENUMBER_SHA256[preset, mode]


# ---------------------------------------------------------------------------
# metrics and failure modes


def test_metrics_identity():
    ps = pulse.PulseSpec()
    env = pulse.input_envelope(ps, pulse.time_grid(ps))
    m = pulse.pulse_metrics(env, env)
    assert m["peak_shift"] == 0.0
    assert m["width_ratio"] == pytest.approx(1.0, rel=1e-12)
    assert m["distortion"] == pytest.approx(0.0, abs=1e-12)


def test_metrics_require_shared_grid():
    ps = pulse.PulseSpec()
    a = pulse.input_envelope(ps, pulse.time_grid(ps))
    b = pulse.input_envelope(ps, a.grid + ps.tau_0)
    with pytest.raises(ValueError, match="same grid"):
        pulse.pulse_metrics(a, b)


def test_flat_traces_are_rejected():
    with pytest.raises(FlatTrace):
        pulse.normalized(np.zeros(8))
    ps = pulse.PulseSpec()
    t = pulse.time_grid(ps)
    flat = pulse.PulseTrace(grid=t, samples=np.ones_like(t))
    with pytest.raises(FlatTrace):
        pulse.pulse_metrics(flat, flat)


def test_peak_at_the_last_sample_is_that_sample():
    assert pulse._parabolic_peak(np.arange(4.0) + 0.5, [0.0, 1.0, 2.0, 3.0]) == 3.5


def test_flat_topped_peak_is_rejected():
    # y[1] - 2 y[2] + y[3] rounds to zero: no parabola through the top
    y = [0.0, 1.0 - 2.0 ** -53, 1.0, 1.0]
    with pytest.raises(FlatTrace, match=r"^degenerate \(flat-top\) peak$"):
        pulse._parabolic_peak(np.arange(4.0), y)


def test_undersampled_window_rejected():
    # N_SAMPLES over a 64*tau_0 window: Nyquist 1.46e11 rad/s < |delta|
    ps = pulse.PulseSpec(delta=1e12)
    with pytest.raises(WindowTooNarrow, match="Nyquist"):
        pulse.frequency_grid(ps, pulse.time_grid(ps))


def test_truncated_spectrum_rejected():
    # pi/dt = 8.3/tau_0 clears |delta| + 8/tau_0, yet the unshifted
    # spectrum still stands at exp(-8.3^2/4) ~ 3e-8 of its peak at the edges
    ps = pulse.PulseSpec(delta=0.0)
    t = np.arange(-32, 32) * (np.pi / 8.3) * ps.tau_0
    with pytest.raises(WindowTooNarrow, match="Nyquist band"):
        pulse.frequency_grid(ps, t)


@settings(max_examples=300, deadline=None)
@given(decade=st.floats(-10.0, -7.0), peak=st.floats(-200.0, 200.0),
       sign=st.sampled_from([-1.0, 1.0]), offset=st.floats(-0.1, 0.1))
@example(decade=-8.0, peak=0.0, sign=1.0, offset=0.0143)  # rejected only here
@example(decade=-8.0, peak=0.0, sign=-1.0, offset=0.003)  # rejected only here
def test_band_rule_rejects_whatever_the_two_former_checks_reject(decade, peak, sign,
                                                                 offset):
    # delta within 10 % of the spectrum's 1e-8 half-width of either band
    # edge; the expected peak (in tau_0) widens the window past 64*tau_0
    tau_0 = 10.0 ** decade
    t = pulse.time_grid(pulse.PulseSpec(tau_0=tau_0), expected_peaks=(peak * tau_0,))
    width = 2.0 * np.sqrt(np.log(1e8)) / tau_0
    ps = pulse.PulseSpec(tau_0=tau_0, delta=sign * (np.pi / (t[1] - t[0]) - width * (1 + offset)))
    try:
        pulse.frequency_grid(ps, t)
    except WindowTooNarrow:
        if not two_band_checks_reject(ps, t):
            # newly rejected only within half a grid step past the half-width
            nu = 2.0 * np.pi * np.fft.fftfreq(t.size, t[1] - t[0])
            assert min(ps.delta - nu.min(), nu.max() - ps.delta) >= width * (1 - 1e-12)
    else:
        assert not two_band_checks_reject(ps, t)


def test_wraparound_detected_for_forced_window():
    # A delay landing the pulse on the FFT window boundary splits the
    # envelope across both edges, which must be flagged, not returned.
    ps = pulse.PulseSpec()
    t = pulse.time_grid(ps)
    period = (t[1] - t[0]) * t.size
    n_edge = 0.5 * period * C_LIGHT / L
    with pytest.raises(AliasingDetected, match="edge energy"):
        pulse.propagate_numeric(ps, quadratic_wavenumber(n_edge, 0.0), L, t)


def _planted_trace(center):
    ps = pulse.PulseSpec()
    t = pulse.time_grid(ps)
    return pulse.input_envelope(ps, t - t[center]).samples


@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_wraparound_detected_at_any_scale(scale):
    # |s|^2 overflows at 1e200: the fraction is taken relative to the peak
    samples = scale * _planted_trace(0)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(AliasingDetected, match=r"^window-edge energy fraction 9\.542e-01 "):
            pulse._check_wraparound(samples)
        pulse._check_wraparound(scale * _planted_trace(pulse.N_SAMPLES // 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_wraparound_check_rejects_a_non_finite_trace(bad):
    samples = _planted_trace(pulse.N_SAMPLES // 2)
    samples[pulse.N_SAMPLES // 3] = bad
    with pytest.raises(AliasingDetected, match="edge energy fraction nan"):
        pulse._check_wraparound(samples)


@pytest.mark.parametrize("field, value", [
    ("tau_0", 0.0), ("tau_0", -1e-9), ("tau_0", float("nan")),
    ("delta", float("nan")),
])
def test_pulse_spec_rejects_out_of_domain_values(field, value):
    with pytest.raises(BadPulseSpec, match=field):
        pulse.PulseSpec(**{field: value})
