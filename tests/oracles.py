"""Independent reference routes that the production code is checked against.

These are deliberately generic and slow: they see only the assembled
arrays, not the structure the production path exploits.
"""

import numpy as np

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
