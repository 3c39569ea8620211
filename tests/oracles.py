"""Independent reference routes that the production code is checked against.

These are deliberately generic and slow: they see only the assembled
arrays, not the structure the production path exploits.
"""

import functools

import numpy as np

from chiralight import doppler, pulse
from chiralight.errors import QuadratureNotConverged
from chiralight.params import C_LIGHT, MediumParams, SystemParams, validate
from chiralight.pulse import PulseTrace, normalized


def cofactors(M):
    """det M and the cofactors C00, C01, ..., C22 of a (..., 3, 3) stack.

    Generic expansion over all nine entries; the cofactors are stacked
    on a last axis of length 9 in row-major order.
    """
    a, b, c = M[..., 0, 0], M[..., 0, 1], M[..., 0, 2]
    d, e, f = M[..., 1, 0], M[..., 1, 1], M[..., 1, 2]
    g, h, i = M[..., 2, 0], M[..., 2, 1], M[..., 2, 2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    cof = np.stack([
        e * i - f * h, f * g - d * i, d * h - e * g,
        c * h - b * i, a * i - c * g, b * g - a * h,
        b * f - c * e, c * d - a * f, a * e - b * d,
    ], axis=-1)
    return det, cof


def cond_frobenius(M):
    """Frobenius condition number ||M||_F * ||M^-1||_F of a (..., 3, 3) stack.

    Generic adjugate formula over all nine entries; inf where det M = 0.
    """
    det, cof = cofactors(M)
    norm_m = np.sqrt((np.abs(M) ** 2).sum(axis=(-2, -1)))
    norm_adj = np.sqrt((np.abs(cof) ** 2).sum(axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(det == 0, np.inf, norm_m * norm_adj / np.abs(det))
    return cond


def _rel_change(new, old, floor):
    """Max over components of point-wise change relative to component scale.

    floor (per component) anchors the scale to the L1 average of the
    integrand, so results that vanish by cancellation (odd integrands)
    still register as converged.  A per-component loop under Python's
    max, which skips a NaN change, kept apart from the production test
    so that the two quadratures share no helper.
    """
    err = 0.0
    for c_new, c_old, c_floor in zip(new, old, floor):
        scale = max(float(np.max(np.abs(c_new))), float(c_floor), 1e-300)
        err = max(err, float(np.max(np.abs(c_new - c_old))) / scale)
    return err


@functools.cache
def _hermite_nodes(n):
    from scipy.special import roots_hermite
    return roots_hermite(n)


def full_node_gauss_hermite_average(f, v_d):
    """Gauss-Hermite node doubling that evaluates f at all n nodes of a level.

    The ladder (``doppler.NODE_COUNT``, ``REL_TOL``, ``MAX_NODES``, read
    at call time), weighted sums, convergence test and error of
    ``doppler.doppler_average`` (for v_d above its cold threshold and
    nodes that do not overflow), except that the nodes whose weight
    underflows to 0.0 are evaluated too and enter the sums as f * 0.
    The production average skips them and must return the same bits.
    """
    prev = None
    n = doppler.NODE_COUNT
    while n <= doppler.MAX_NODES:
        x, w = _hermite_nodes(n)
        vals = f(v_d * x)
        cur = np.array([(c * w).sum(axis=-1) for c in vals]) / np.sqrt(np.pi)
        floor = [(np.abs(c) * w).sum(axis=-1).max() / np.sqrt(np.pi) for c in vals]
        if prev is not None and _rel_change(cur, prev, floor) < doppler.REL_TOL:
            return tuple(cur)
        prev = cur
        n *= 2
    raise QuadratureNotConverged(
        f"Gauss-Hermite average not converged to {doppler.REL_TOL:g} "
        f"within {doppler.MAX_NODES} nodes")


def trapezoid_average(f, v_d, *, truncation, rel_tol=1.0e-8, max_panels=16384):
    """Adaptive-trapezoid Maxwellian average over [-truncation*v_d, +truncation*v_d].

    Same integrand convention as ``doppler.doppler_average``.  Starts at
    64 panels and doubles them, reusing the previous nodes, until two
    levels agree to rel_tol under the same per-component measure as the
    Gauss-Hermite refinement.
    """
    T = truncation * v_d
    lo, hi = -T, T

    def weighted(kv):
        return np.stack(f(kv)) * np.exp(-(kv / v_d) ** 2)

    n = 64
    kv = np.linspace(lo, hi, n + 1)
    g = weighted(kv)
    h = (hi - lo) / n

    def trap(arr):
        return h * (arr[..., 1:-1].sum(axis=-1) + 0.5 * (arr[..., 0] + arr[..., -1]))

    S, A = trap(g), trap(np.abs(g))
    while n <= max_panels:
        mids = lo + (np.arange(n) + 0.5) * h
        gm = weighted(mids)
        S_new = 0.5 * S + 0.5 * h * gm.sum(axis=-1)
        A = 0.5 * A + 0.5 * h * np.abs(gm).sum(axis=-1)
        n *= 2
        h *= 0.5
        norm = v_d * np.sqrt(np.pi)
        floor = [c.max() / norm for c in A]
        if _rel_change(S_new / norm, S / norm, floor) < rel_tol:
            return tuple(S_new / norm)
        S = S_new
    raise QuadratureNotConverged(
        f"adaptive trapezoid not converged to {rel_tol:g} within {max_panels} panels")


def dft(t, samples):
    """Forward transform E(nu) = integral E(t) e^{-i nu t} dt.

    The counterpart of ``pulse.idft`` under the same e^{+i omega t}
    convention, so transform pairs can be checked in both directions.
    """
    dt = t[1] - t[0]
    nu = 2.0 * np.pi * np.fft.fftfreq(t.size, dt)
    spec = dt * np.exp(-1j * nu * t[0]) * np.fft.fft(samples)
    return nu, spec


def two_band_checks_reject(ps, t):
    """Whether the pulse layer's two former band checks reject ps on t.

    First the Nyquist margin: pi/dt against |delta| + 8/tau_0.  Then the
    sampled input spectrum: either edge sample of the band above 1e-8
    of the sampled peak.  ``pulse.frequency_grid`` must reject whatever
    this pair rejects.
    """
    dt = t[1] - t[0]
    if np.pi / dt < abs(ps.delta) + 8.0 / ps.tau_0:
        return True
    nu = 2.0 * np.pi * np.fft.fftfreq(t.size, dt)
    samples = (ps.tau_0 / np.sqrt(2.0)) * np.exp(-((nu - ps.delta) ** 2) * ps.tau_0 ** 2 / 4.0)
    edges = samples[[np.argmin(nu), np.argmax(nu)]]
    return bool(np.any(edges > 1.0e-8 * samples.max()))


def full_band_propagation(ps, k_rel, L, t=None):
    """``pulse.propagate_numeric`` with k_rel evaluated at every FFT frequency.

    Including those where the input spectrum is exactly zero, which the
    production route skips; the slope estimate, grids, transform and
    wrap-around rule are the production ones.  For a pointwise k_rel
    both routes must return the same bytes.
    """
    if t is None:
        dnu = 1.0 / ps.tau_0
        slope = np.real(k_rel(np.array([dnu])) - k_rel(np.array([-dnu])))[0] / (2 * dnu)
        t = pulse.time_grid(ps, expected_peaks=(slope * L,))
    nu = pulse.frequency_grid(ps, t)
    spec_in = pulse.input_spectrum(ps, nu)
    spec_out = spec_in * np.exp(-1j * np.asarray(k_rel(nu)) * L)
    samples = pulse.idft(t, nu, spec_out)
    pulse._check_wraparound(samples)
    return PulseTrace(grid=t, samples=samples)


def two_level_config(width, kappa, v_doppler=0.0, alpha_3=1.0):
    """A validated config whose medium is one two-level line.

    With omega_1 = omega_2 = omega_3 = 0 the coherence matrix is
    diagonal, and dipole_ratio = 0 removes the magnetic and cross
    couplings, so chi_e = kappa*(i/2)/(width - i*Delta_p) is the whole
    response (width = (gamma_1 + gamma_2)/2) and ``two_level_index``
    gives its index in closed form.  alpha_3 enters no output.
    """
    return validate(
        SystemParams(omega_1=0.0, omega_2=0.0, omega_3=0.0, gamma_1=width,
                     gamma_2=width, gamma_3=width, gamma_4=width, alpha_3=alpha_3),
        MediumParams(v_doppler=v_doppler, density_coupling=kappa, dipole_ratio=0.0))


def two_level_index(delta_p, width, kappa, v_doppler=0.0):
    """n, dn/dDelta_p and d^2n/dDelta_p^2 of ``two_level_config``'s line.

    chi_e = kappa*(i/2)*f with f = 1/(width - i*Delta_p) cold.  Hot, f
    is its Maxwellian average sqrt(pi)*w(zeta)/V_D at
    zeta = (Delta_p + i*width)/V_D, w the Faddeeva function with
    w' = -2*zeta*w + 2i/sqrt(pi) (Fried & Conte 1961).  n = sqrt(1 + chi_e),
    so n' = chi'/(2n) and n'' = chi''/(2n) - chi'^2/(4n^3).
    """
    from scipy.special import wofz
    x = np.asarray(delta_p, dtype=float)
    if v_doppler == 0.0:
        f = 1.0 / (width - 1j * x)
        df, d2f = 1j * f ** 2, -2.0 * f ** 3
    else:
        z = (x + 1j * width) / v_doppler
        w = wofz(z)
        dw = -2.0 * z * w + 2j / np.sqrt(np.pi)
        d2w = -2.0 * w - 2.0 * z * dw
        f, df, d2f = (np.sqrt(np.pi) * g / v_doppler ** k
                      for k, g in ((1, w), (2, dw), (3, d2w)))
    chi, dchi, d2chi = (0.5j * kappa * g for g in (f, df, d2f))
    n = np.sqrt(1.0 + chi)
    return n, dchi / (2.0 * n), d2chi / (2.0 * n) - dchi ** 2 / (4.0 * n ** 3)


def quadratic_wavenumber(n_0, g_vd):
    """k(nu) - k(0) for a pure first-order-dispersion medium (1/m)."""
    def k_rel(nu):
        return n_0 * np.asarray(nu) / C_LIGHT + 0.5 * g_vd * np.asarray(nu) ** 2
    return k_rel


def l2_difference(a, b):
    """Relative L2 distance of peak-normalized envelopes."""
    na, nb = normalized(a), normalized(b)
    return float(np.linalg.norm(na - nb) / np.linalg.norm(nb))
