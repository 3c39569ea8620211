"""Independent reference routes that the production code is checked against.

These are deliberately generic and slow: they see only the assembled
arrays, not the structure the production path exploits.
"""

import functools

import numpy as np

from chiralight import doppler
from chiralight.doppler import _rel_change
from chiralight.errors import QuadratureNotConverged
from chiralight.params import C_LIGHT
from chiralight.pulse import normalized


def cond_frobenius(M):
    """Frobenius condition number ||M||_F * ||M^-1||_F of a (..., 3, 3) stack.

    Generic adjugate formula over all nine entries; inf where det M = 0.
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
    norm_m = np.sqrt((np.abs(M) ** 2).sum(axis=(-2, -1)))
    norm_adj = np.sqrt((np.abs(cof) ** 2).sum(axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(det == 0, np.inf, norm_m * norm_adj / np.abs(det))
    return cond


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


def quadratic_wavenumber(n_0, g_vd):
    """k(nu) - k(0) for a pure first-order-dispersion medium (1/m)."""
    def k_rel(nu):
        return n_0 * np.asarray(nu) / C_LIGHT + 0.5 * g_vd * np.asarray(nu) ** 2
    return k_rel


def l2_difference(a, b):
    """Relative L2 distance of peak-normalized envelopes."""
    na, nb = normalized(a), normalized(b)
    return float(np.linalg.norm(na - nb) / np.linalg.norm(nb))
