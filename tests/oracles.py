"""Independent reference routes that the production code is checked against.

These are deliberately generic and slow: they see only the assembled
arrays, not the structure the production path exploits.
"""

import numpy as np


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
