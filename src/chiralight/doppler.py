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
ones as exact zeros, so results are deterministic.  A level's sums, L1
floors and convergence test are array reductions over the stacked
(component x point) values.  Below 512 nodes every node carries weight
and the products are summed as they are; from 512 on each component's
products pass through one zeroed full-width row, reused across the
components.  A level's values are dropped before f builds the next.

The nodes and weights are not computed at run time: they are read from
``gauss_hermite.npz`` in this package on the first hot average, never
at import.  The table holds ``scipy.special.roots_hermite(n)`` for each
ladder level (Golub-Welsch below 150 nodes, the Townsend-Trogdon-Olver
asymptotic rule from 150 on), written by ``tests/make_hermite_table.py``
and checked against SciPy bit for bit by the test suite, so the package
needs numpy only.
"""

from __future__ import annotations

import functools
from importlib import resources

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

# per ladder level n: the positive weighted nodes x{n}, their weights
# w{n} and the outermost node top{n}
_TABLE = "gauss_hermite.npz"

_SQRT_PI = np.sqrt(np.pi)


@functools.cache
def _hermite(n: int):
    """Weighted nodes x[lo:hi], full-width weights w, lo, hi and x[-1].

    exp(-x^2) underflows past |x| ~ 27, so from 512 nodes on the outer
    weights are exactly zero (at 8192 nodes only 2192 carry weight).
    The table holds the positive half; the rule is symmetric bit for
    bit, so mirroring rebuilds the rest exactly.
    """
    with resources.files(__package__).joinpath(_TABLE).open("rb") as fh, \
            np.load(fh) as table:
        half_x, half_w, top = table[f"x{n}"], table[f"w{n}"], float(table[f"top{n}"])
    lo, hi = n // 2 - half_x.size, n // 2 + half_x.size
    w = np.zeros(n)
    w[lo:hi] = np.concatenate((half_w[::-1], half_w))
    return np.concatenate((-half_x[::-1], half_x)), w, lo, hi, top


def _weighted_sum(vals, w, lo, hi, magnitude=False):
    """(c * w).sum(axis=-1) for each component c of vals, stacked.

    The components are sampled at the nodes lo:hi only; with magnitude
    the sums are of |c| * w.  Where every node carries weight (lo == 0
    and hi == n) the stacked products are summed as they are.
    Otherwise each component's products go into one zeroed full-width
    row, reused across the components, so numpy's pairwise summation
    runs the same tree over the same values as it would on all n
    nodes: only the sign of an exactly-zero total can differ.  Rows
    stacked over the components would hold all of them at once.
    """
    n = w.size
    # below 512 nodes one stacked sum, no per-component loop: pays on a root search's small groups
    if lo == 0 and hi == n:
        c = np.abs(vals) if magnitude else np.asarray(vals)
        return (c * w).sum(axis=-1)
    dtype = float if magnitude else np.result_type(*vals, w)
    row = np.zeros(np.shape(vals[0])[:-1] + (n,), dtype=dtype)
    sums = np.empty((len(vals),) + row.shape[:-1], dtype=dtype)
    live, w_live = row[..., lo:hi], w[lo:hi]
    for k, c in enumerate(vals):
        if magnitude:
            np.multiply(np.abs(c, out=live), w_live, out=live)
        else:
            np.multiply(c, w_live, out=live)
        row.sum(axis=-1, out=sums[k, ...])
    return sums


def _rel_change(new, old, floor):
    """Max over components of point-wise change relative to component scale.

    new and old stack the components on the first axis.  floor (per
    component) anchors the scale to the L1 average of the integrand, so
    results that vanish by cancellation (odd integrands) still register
    as converged.  A component whose change is NaN is skipped, as
    Python's max skips it, so a NaN component does not hold the ladder.
    """
    points = tuple(range(1, new.ndim))
    # Python's max(peak, floor, 1e-300): NaN where the peak is NaN, never for a NaN floor
    scale = np.maximum(np.abs(new).max(axis=points), np.fmax(floor, 1e-300))
    change = np.abs(new - old).max(axis=points)
    return max(0.0, *(d / s for d, s in zip(change.tolist(), scale.tolist())))


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
        x, w, lo, hi, top = _hermite(n)
        # the nodes are sorted and symmetric, so top = x[-1] is the largest
        if not np.isfinite(v_d * top):
            raise CouplingOverflow(f"Gauss-Hermite nodes overflow at v_d = {v_d:g}")
        vals = f(v_d * x)
        cur = _weighted_sum(vals, w, lo, hi) / _SQRT_PI
        if prev is not None:
            l1 = _weighted_sum(vals, w, lo, hi, magnitude=True)
            floor = l1.reshape(len(l1), -1).max(axis=1) / _SQRT_PI
            if _rel_change(cur, prev, floor) < REL_TOL:
                return tuple(cur)
        # drop this level's values before f builds the next, larger level
        del vals
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
            # one call, no copy into out: pays on a root search's small groups
            if step >= _sub.size:
                return response_mod.response_at(cfg, kv[None, :], delta_p=_sub[:, None]).components()
            out = np.empty((4, _sub.size, kv.size), dtype=complex)
            for i in range(0, _sub.size, step):
                r = response_mod.response_at(cfg, kv[None, :], delta_p=_sub[i:i + step, None])
                for o, c in zip(out, r.components()):
                    o[i:i + step] = c
            return tuple(out)

        parts.append(doppler_average(f, cfg.medium.v_doppler))
    return response_mod.OpticalResponse(*(np.concatenate(c) for c in zip(*parts)))
