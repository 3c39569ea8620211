"""Gaussian probe-pulse propagation through the dispersive medium.

A pulse is a params.PulseSpec (tau_0, delta), sampled on the grid the caller
passes (from time_grid / frequency_grid); stored samples are envelopes:

    E_in(t)  = exp(-t^2/tau_0^2) * exp(i*delta*t)
    E_in(nu) = (tau_0/sqrt(2)) * exp(-(nu - delta)^2 tau_0^2 / 4)

with nu = omega - omega_0 the offset from the medium's carrier
omega_0 = omega_14*gamma_unit, i.e. nu = Delta_p*gamma_unit.  Propagation
over length L multiplies the spectrum by the transfer function
H = exp(-i*k(nu)*L); the constant k(0)*L (global carrier phase and
attenuation) is factored out of every path, so envelopes keep the
group delay but stay numerically representable even in strongly
absorbing media.

Two deliberately independent output paths:

* :func:`propagate_analytic` -- the closed-form first-order-dispersion
  Gaussian (group index n_0, group velocity dispersion G_vd), peaking
  at t = L*n_0/c + L*G_vd*delta with width tau_0*sqrt(1 + Xi^2),
  Xi = 2*L*G_vd/tau_0^2;
* :func:`propagate_numeric` -- FFT convolution against an arbitrary
  sampled k(nu), including complex (absorbing) spectra.  k(nu) is
  sampled only where the input spectrum is non-zero: elsewhere the
  output spectrum is an exact 0, so the skip is exact for a pointwise
  k(nu); a hot k(nu) is pointwise only to the quadrature tolerance.

One rule, in :func:`frequency_grid` and before any trace, decides
whether a window's band holds the pulse: the input spectrum must fall
below EDGE_AMPLITUDE_TOL of its sampled peak inside both band edges.

The sign conventions follow the e^{+i omega t} analysis transform:
E(t) = (1/2pi) * integral E(nu) e^{+i nu t} d nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optics
from .errors import AliasingDetected, FlatTrace, WindowTooNarrow
from .params import C_LIGHT, PulseSpec, ValidatedConfig

# Fraction of |E| tolerated at a window edge before declaring the
# window too narrow / the transform aliased.
EDGE_AMPLITUDE_TOL = 1.0e-8
EDGE_ENERGY_TOL = 1.0e-6

# Samples per time window, and the minimum window width in units of tau_0.
N_SAMPLES = 2 ** 14
WINDOW_TAU = 64.0


@dataclass(frozen=True)
class PulseTrace:
    """Sampled complex envelope on its grid.

    grid holds t (seconds) for a time-domain envelope or
    nu = omega - omega_0 (rad/s) for a spectrum.
    """

    grid: object
    samples: object


def time_grid(ps: PulseSpec, expected_peaks=(0.0,), series=(), L=0.0) -> np.ndarray:
    """Uniform time grid covering t = 0, every expected peak and the output
    pulse of each (n_0, g_vd) in series, propagated over L.

    The window is at least WINDOW_TAU*tau_0 wide.  Each output pulse,
    broadened sqrt(1 + Xi^2)-fold with Xi = 2*L*g_vd/tau_0^2, gets a
    16*tau_0*max(1, |Xi|) margin beyond its arrival_time, and every other
    peak 16*tau_0, so no pulse wraps around.
    """
    margin = 16.0 * ps.tau_0
    spans = [(float(p), margin) for p in (0.0, *np.atleast_1d(expected_peaks))]
    for n_0, g_vd in series:
        # |Xi|*tau_0 in Python floats, tau_0 never squared: an absurd
        # tau_0 leaves a finite window for frequency_grid to reject
        spread = abs(2.0 * L * float(g_vd) / ps.tau_0)
        spans.append((float(arrival_time(ps, n_0, g_vd, L)), 16.0 * max(ps.tau_0, spread)))
    lo = min(p - m for p, m in spans)
    hi = max(p + m for p, m in spans)
    width = hi - lo
    if width < WINDOW_TAU * ps.tau_0:
        pad = 0.5 * (WINDOW_TAU * ps.tau_0 - width)
        lo, hi = lo - pad, hi + pad
    return np.linspace(lo, hi, N_SAMPLES, endpoint=False)


def frequency_grid(ps: PulseSpec, t: np.ndarray) -> np.ndarray:
    """FFT-ordered nu grid conjugate to t; the one band-coverage check.

    Raises WindowTooNarrow unless delta -/+ margin lies in [nu.min(), nu.max()],
    margin = 2*sqrt(ln(1/EDGE_AMPLITUDE_TOL))/tau_0 + dnu/2, dnu = 2*pi/(N*dt).
    """
    dt = t[1] - t[0]
    nu = 2.0 * np.pi * np.fft.fftfreq(t.size, dt)
    # Python floats: a tiny tau_0 makes the width inf, not an overflow warning
    width = 2.0 * math.sqrt(math.log(1.0 / EDGE_AMPLITUDE_TOL)) / ps.tau_0
    margin = width + np.pi / (t.size * dt)
    if ps.delta - margin < nu.min() or ps.delta + margin > nu.max():
        raise WindowTooNarrow(
            f"Nyquist band [{nu.min():.3e}, {nu.max():.3e}] rad/s does not hold the "
            f"pulse band {ps.delta:.3e} -/+ {margin:.3e} rad/s (spectrum down to "
            f"{EDGE_AMPLITUDE_TOL:g} of peak)")
    return nu


def idft(t: np.ndarray, nu: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """Inverse transform E(t) = (1/2pi) integral E(nu) e^{+i nu t} d nu."""
    dt = t[1] - t[0]
    return np.fft.ifft(spec * np.exp(1j * nu * t[0])) / dt


def input_envelope(ps: PulseSpec, t) -> PulseTrace:
    """Gaussian input envelope exp(-t^2/tau_0^2) exp(i delta t) on t."""
    samples = np.exp(-(t / ps.tau_0) ** 2) * np.exp(1j * ps.delta * t)
    return PulseTrace(grid=t, samples=samples)


def input_spectrum(ps: PulseSpec, nu) -> np.ndarray:
    """Analytic input spectrum (tau_0/sqrt(2)) exp(-(nu-delta)^2 tau_0^2/4) on nu.

    Evaluates only: whether nu's band holds the spectrum is decided
    once, by frequency_grid.
    """
    return (ps.tau_0 / np.sqrt(2.0)) * np.exp(-((nu - ps.delta) ** 2) * ps.tau_0 ** 2 / 4.0)


def medium_wavenumber(cfg: ValidatedConfig, ps: PulseSpec, mode: str = "cold"):
    """k(nu) - k(0) sampled from the full complex chiral index (1/m).

    The carrier is omega_14*gamma_unit; ps does not enter k.  A hot k is
    pointwise only to the quadrature tolerance of its hot_response group.
    """
    def k_rel(nu):
        # evaluate the band and the nu = 0 carrier point in one sorted,
        # branch-tracked pass so their square-root signs agree
        nu = np.asarray(nu, dtype=float)
        flat = np.concatenate([nu.ravel(), [0.0]])
        n, _, _ = optics._index_at(cfg, flat / cfg.medium.gamma_unit, mode)
        k = (cfg.medium.omega_14 * cfg.medium.gamma_unit + flat) * n / C_LIGHT
        return (k[:-1] - k[-1]).reshape(nu.shape)
    return k_rel


def arrival_time(ps: PulseSpec, n_0: float, g_vd: float, L: float) -> float:
    """Group arrival T_g = L n_0/c + L G_vd delta of the pulse peak (s)."""
    return L * n_0 / C_LIGHT + g_vd * L * ps.delta


def propagate_analytic(ps: PulseSpec, n_0: float, g_vd: float, L: float,
                       t) -> PulseTrace:
    """Closed-form first-order-dispersion output envelope on t.

    E_out(t) = tau_0/sqrt(tau_0^2 + 2i L G_vd)
               * exp[i delta (t - L n_0/c) - i G_vd L delta^2/2]
               * exp[-(t - T_g)^2/(tau_0^2 + 2i L G_vd)]

    with group arrival T_g = arrival_time(ps, n_0, g_vd, L).  Reduces to
    the input delayed by L/c for n_0 = 1, G_vd = 0.
    """
    beta = g_vd * L
    T0 = L * n_0 / C_LIGHT
    denom = ps.tau_0 ** 2 + 2j * beta
    samples = (ps.tau_0 / np.sqrt(denom)
               * np.exp(1j * ps.delta * (t - T0) - 0.5j * beta * ps.delta ** 2)
               * np.exp(-((t - arrival_time(ps, n_0, g_vd, L)) ** 2) / denom))
    return PulseTrace(grid=t, samples=samples)


def propagate_numeric(ps: PulseSpec, k_rel, L: float, t=None) -> PulseTrace:
    """FFT-convolution output against a sampled wavenumber offset.

    k_rel is a callable nu -> k(nu) - k(0) (possibly complex) and must
    be pointwise (a hot medium_wavenumber is so only to the quadrature
    tolerance): it is called once, on the nu where the input spectrum
    is non-zero.  At the other nu the output spectrum is exactly 0, as
    the product there would be a signed zero, and a zero term leaves
    every non-zero FFT sum unchanged.
    The time window defaults to covering the group delay estimated from
    the numerical slope of Re k_rel at band center.  Raises
    AliasingDetected if the output carries edge energy above 1e-6 of
    its total, or if that fraction is not finite.
    """
    if t is None:
        dnu = 1.0 / ps.tau_0
        slope = np.real(k_rel(np.array([dnu])) - k_rel(np.array([-dnu])))[0] / (2 * dnu)
        t = time_grid(ps, expected_peaks=(slope * L,))
    nu = frequency_grid(ps, t)
    spec_in = input_spectrum(ps, nu)
    live = spec_in != 0.0
    spec_out = np.zeros(nu.shape, dtype=complex)
    spec_out[live] = spec_in[live] * np.exp(-1j * np.asarray(k_rel(nu[live])) * L)
    samples = idft(t, nu, spec_out)
    _check_wraparound(samples)
    return PulseTrace(grid=t, samples=samples)


def _check_wraparound(samples):
    magnitude = np.abs(samples)
    # relative to the peak, so |s|^2 cannot overflow; nan if any |s| is not finite
    with np.errstate(invalid="ignore"):
        intensity = (magnitude / max(float(magnitude.max()), 1e-300)) ** 2
    edge = max(1, samples.size // 64)
    fraction = (intensity[:edge].sum() + intensity[-edge:].sum()) / max(intensity.sum(), 1e-300)
    if not fraction <= EDGE_ENERGY_TOL:
        raise AliasingDetected(
            f"window-edge energy fraction {fraction:.3e} exceeds "
            f"{EDGE_ENERGY_TOL:g}; widen the time window")


def normalized(samples) -> np.ndarray:
    """Envelope normalized by its peak-magnitude sample (phase-aligned)."""
    samples = np.asarray(samples)
    peak = samples[np.argmax(np.abs(samples))]
    if peak == 0:
        raise FlatTrace("cannot normalize an all-zero trace")
    return samples / peak


def _parabolic_peak(x, y):
    """Sub-sample peak location of y(x) by parabolic interpolation."""
    y = np.asarray(y)
    i = int(np.argmax(y))
    span = float(y.max() - y.min())
    if span <= 1e-12 * max(abs(float(y.max())), 1e-300):
        raise FlatTrace("trace has no unique peak")
    if i == 0 or i == y.size - 1:
        return float(x[i])
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0:
        raise FlatTrace("degenerate (flat-top) peak")
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    dx = x[1] - x[0]
    return float(x[i] + shift * dx)


def _rms_width(x, y):
    w = np.asarray(y)
    center = float((w * x).sum() / w.sum())
    return float(np.sqrt((w * (x - center) ** 2).sum() / w.sum()))


def pulse_metrics(trace_in: PulseTrace, trace_out: PulseTrace) -> dict:
    """Peak shift (s), RMS width ratio and distortion between traces.

    distortion = 1 - max of the normalized cross-correlation of the
    magnitude envelopes; 0 for identical shapes.
    """
    t_i, t_o = np.asarray(trace_in.grid), np.asarray(trace_out.grid)
    # grids are in seconds, so the comparison must be purely relative --
    # an absolute tolerance would silently accept ns-scale shifts
    if t_i.shape != t_o.shape or not np.allclose(t_i, t_o, rtol=1e-12, atol=0.0):
        raise ValueError("pulse_metrics requires both traces on the same grid")
    a = np.abs(np.asarray(trace_in.samples))
    b = np.abs(np.asarray(trace_out.samples))
    peak_shift = _parabolic_peak(t_i, b ** 2) - _parabolic_peak(t_i, a ** 2)
    width_ratio = _rms_width(t_i, b ** 2) / _rms_width(t_i, a ** 2)
    n = a.size
    fa = np.fft.rfft(a, 2 * n)
    fb = np.fft.rfft(b, 2 * n)
    corr = np.fft.irfft(fa.conj() * fb, 2 * n)
    corr_max = float(np.max(corr)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return {
        "peak_shift": peak_shift,
        "width_ratio": width_ratio,
        "distortion": 1.0 - corr_max,
    }
