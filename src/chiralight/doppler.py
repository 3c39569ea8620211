"""Maxwellian velocity averaging for the hot medium.

The average of a response component f over the thermal velocity
distribution is

    <f> = (1/(V_D sqrt(pi))) * integral f(kv) exp(-(kv)^2/V_D^2) d(kv)

After u = kv/V_D this weight is exactly the Gauss-Hermite weight, so
:func:`doppler_average` runs one fixed Gauss-Hermite ladder: 64 nodes,
doubled up to 16384, until two consecutive levels agree to 1e-8.  It is
the only route and takes no settings.  :func:`hot_response` averages a
detuning grid in groups of 61 points that share that convergence test.
The integrand is evaluated only at the nodes whose weight is not 0.0
(from 512 nodes on, exp(-x^2) underflows at the outer ones); an error
it raises at a node that carries weight (SingularSystem,
CouplingOverflow) fails the average unchanged.  The overflow check on
v_d times the nodes still looks at the outermost node x[-1], weighted
or not.  The test suite checks the average against an independent
second quadrature and against an all-node evaluation.

Integrands return a sequence of component arrays (last axis = kv) and
averages come back as a tuple.  Reductions use numpy's pairwise
summation over all n nodes of a level in a fixed order, the skipped
ones as exact zeros, so results are deterministic.  SciPy (the
Gauss-Hermite nodes) is imported on the first hot average, so cold runs
never load it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import response as response_mod
from .errors import CouplingOverflow, QuadratureNotConverged
from .params import ValidatedConfig

# Below this Doppler width the weight is effectively a delta function
# and the average returns the kv = 0 value exactly.
COLD_WIDTH = 1.0e-6

# The Gauss-Hermite ladder: start at NODE_COUNT nodes and double until
# two consecutive levels agree to REL_TOL, giving up past MAX_NODES.
NODE_COUNT = 64
REL_TOL = 1.0e-8
MAX_NODES = 16384

# Detuning points per group in hot_response, and points x nodes per row
# block of its integrand (keeps the (rows, node, 3, 3) solve tensors
# small).  The points of a group share one convergence test, so another
# group size would move the level, and the bits, at which a point
# converges: keep it at 61.
_GROUP_SIZE = 61
_BLOCK_BUDGET = 16384


@functools.cache
def _hermite(n: int):
    """Nodes x, weights w and the slice lo:hi of the weights that are not 0.0.

    exp(-x^2) underflows past |x| ~ 27, so from 512 nodes on the outer
    weights are exactly zero (at 8192 nodes only 2192 carry weight).
    """
    from scipy.special import roots_hermite
    x, w = roots_hermite(n)
    live = np.flatnonzero(w)
    return x, w, int(live[0]), int(live[-1]) + 1


def _weighted_sum(c, w, lo, hi):
    """(c * w).sum(axis=-1) for c sampled at the nodes lo:hi only.

    The products go into a zeroed full-width row, so numpy's pairwise
    summation runs the same tree over the same values as it would on all
    n nodes: only the sign of an exactly-zero total can differ.
    """
    prod = c * w[lo:hi]
    row = np.zeros(prod.shape[:-1] + w.shape, dtype=prod.dtype)
    row[..., lo:hi] = prod
    return row.sum(axis=-1)


def _rel_change(new, old, floor):
    """Max over components of point-wise change relative to component scale.

    floor (per component) anchors the scale to the L1 average of the
    integrand, so results that vanish by cancellation (odd integrands)
    still register as converged.
    """
    err = 0.0
    for c_new, c_old, c_floor in zip(new, old, floor):
        scale = max(float(np.max(np.abs(c_new))), float(c_floor), 1e-300)
        err = max(err, float(np.max(np.abs(c_new - c_old))) / scale)
    return err


def doppler_average(f, v_d: float):
    """Average f(kv) over the Maxwellian weight of width v_d.

    f maps an array of kv samples to a sequence of complex component
    arrays (last axis = kv); the result is the tuple of their averages.
    For v_d below the cold threshold the kv = 0 values are returned
    exactly.  f is evaluated only at the nodes whose weight is not 0.0;
    an error that f raises at one of them propagates unchanged.
    """
    if v_d < COLD_WIDTH:
        return tuple(v[..., 0] for v in f(np.zeros(1)))
    prev = None
    n = NODE_COUNT
    while n <= MAX_NODES:
        x, w, lo, hi = _hermite(n)
        # the nodes are sorted and symmetric, so x[-1] is the largest
        if not np.isfinite(v_d * float(x[-1])):
            raise CouplingOverflow(f"Gauss-Hermite nodes overflow at v_d = {v_d:g}")
        vals = f(v_d * x[lo:hi])
        cur = np.array([_weighted_sum(c, w, lo, hi) for c in vals]) / np.sqrt(np.pi)
        floor = [_weighted_sum(np.abs(c), w, lo, hi).max() / np.sqrt(np.pi) for c in vals]
        if prev is not None and _rel_change(cur, prev, floor) < REL_TOL:
            return tuple(cur)
        prev = cur
        n *= 2
    raise QuadratureNotConverged(
        f"Gauss-Hermite average not converged to {REL_TOL:g} "
        f"within {MAX_NODES} nodes")


def hot_response(cfg: ValidatedConfig, grid) -> response_mod.OpticalResponse:
    """Doppler-averaged response on a 1-D probe-detuning grid.

    Each component is averaged with the full shifted-detuning rule
    (all alpha_i signs) applied at every weighted node and comes back
    shaped like grid.  Grids go in groups of _GROUP_SIZE points, the
    integrand in row blocks, to bound the batched 3x3 solves.
    """
    grid = np.asarray(grid, dtype=float)

    parts = []
    for start in range(0, grid.size, _GROUP_SIZE):
        sub = grid[start:start + _GROUP_SIZE]

        def f(kv, _sub=sub):
            step = max(1, _BLOCK_BUDGET // kv.size)
            out = [np.empty((_sub.size, kv.size), dtype=complex) for _ in range(4)]
            for i in range(0, _sub.size, step):
                r = response_mod.response_at(cfg, kv[None, :], delta_p=_sub[i:i + step, None])
                for o, c in zip(out, r.components()):
                    o[i:i + step] = c
            return out

        parts.append(doppler_average(f, cfg.medium.v_doppler))
    return response_mod.OpticalResponse(*(np.concatenate(c) for c in zip(*parts)))
