"""Maxwellian velocity averaging for the hot medium.

The average of a response component f over the thermal velocity
distribution is

    <f> = (1/(V_D sqrt(pi))) * integral f(kv) exp(-(kv)^2/V_D^2) d(kv)

After u = kv/V_D this weight is exactly the Gauss-Hermite weight, so
:func:`doppler_average` uses Gauss-Hermite quadrature with automatic
node doubling until two consecutive refinements agree.  An adaptive
trapezoid rule on a truncated window, :func:`trapezoid_average`, is
its fallback when an integrand cannot be evaluated at a node and an
independent check on it -- the two must agree to 1e-8 on the
acceptance parameter sets, and the test suite checks that they do.

Integrands return a sequence of component arrays (last axis = kv) and
averages come back as a tuple.  Reductions use numpy's pairwise
summation on nodes in a fixed order, so results are deterministic for
a given QuadratureSpec.  SciPy (the Gauss-Hermite nodes) is imported
on the first hot average, so cold runs never load it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import response as response_mod
from .errors import (CouplingOverflow, PoleInSupport, QuadratureNotConverged,
                     SingularSystem)
from .params import ValidatedConfig

# Below this Doppler width the weight is effectively a delta function
# and the average returns the kv = 0 value exactly.
COLD_WIDTH = 1.0e-6

# Points x nodes budget per batched evaluation when averaging over a
# detuning grid (a chunk shares one convergence test), and per row block
# of its integrand (keeps the (rows, node, 3, 3) solve tensors small).
_CHUNK_BUDGET = 1_000_000
_BLOCK_BUDGET = 16384


@dataclass(frozen=True)
class QuadratureSpec:
    """Velocity-average discretization parameters.

    node_count is the starting Gauss-Hermite node count (or starting
    panel count for the trapezoid rule); refinement doubles it until
    two consecutive levels agree to rel_tol or max_nodes is exceeded.
    truncation is the half-window of the trapezoid rule in units of
    V_D.
    """

    node_count: int = 64
    truncation: float = 4.0
    rel_tol: float = 1.0e-8
    max_nodes: int = 16384

    def __post_init__(self):
        if self.node_count < 8:
            raise ValueError("node_count must be >= 8")
        if self.truncation <= 0 or self.rel_tol <= 0:
            raise ValueError("truncation and rel_tol must be > 0")


@functools.cache
def _hermite(n: int):
    from scipy.special import roots_hermite
    return roots_hermite(n)


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


def _gauss_hermite_average(f, v_d, spec):
    prev = None
    n = spec.node_count
    while n <= spec.max_nodes:
        x, w = _hermite(n)
        # the nodes are sorted and symmetric, so x[-1] is the largest
        if not np.isfinite(v_d * float(x[-1])):
            raise CouplingOverflow(f"Gauss-Hermite nodes overflow at v_d = {v_d:g}")
        vals = f(v_d * x)
        cur = np.array([(c * w).sum(axis=-1) for c in vals]) / np.sqrt(np.pi)
        floor = [(np.abs(c) * w).sum(axis=-1).max() / np.sqrt(np.pi) for c in vals]
        if prev is not None and _rel_change(cur, prev, floor) < spec.rel_tol:
            return tuple(cur)
        prev = cur
        n *= 2
    raise QuadratureNotConverged(
        f"Gauss-Hermite average not converged to {spec.rel_tol:g} "
        f"within {spec.max_nodes} nodes")


def _trapezoid_average(f, v_d, spec, shift=0.0):
    """Adaptive trapezoid on [-T, T] (+shift), doubling panels with
    midpoint reuse until two levels agree to rel_tol."""
    T = spec.truncation * v_d
    lo, hi = -T + shift, T + shift
    if not np.isfinite(hi - lo):
        raise CouplingOverflow(f"trapezoid window overflows at v_d = {v_d:g}")

    def weighted(kv):
        return np.stack(f(kv)) * np.exp(-(kv / v_d) ** 2)

    n = max(spec.node_count, 16)
    kv = np.linspace(lo, hi, n + 1)
    g = weighted(kv)
    h = (hi - lo) / n

    def trap(arr):
        return h * (arr[..., 1:-1].sum(axis=-1) + 0.5 * (arr[..., 0] + arr[..., -1]))

    S, A = trap(g), trap(np.abs(g))
    while n <= spec.max_nodes:
        mids = lo + (np.arange(n) + 0.5) * h
        gm = weighted(mids)
        S_new = 0.5 * S + 0.5 * h * gm.sum(axis=-1)
        A = 0.5 * A + 0.5 * h * np.abs(gm).sum(axis=-1)
        n *= 2
        h *= 0.5
        norm = v_d * np.sqrt(np.pi)
        floor = [c.max() / norm for c in A]
        if _rel_change(S_new / norm, S / norm, floor) < spec.rel_tol:
            return tuple(S_new / norm)
        S = S_new
    raise QuadratureNotConverged(
        f"adaptive trapezoid not converged to {spec.rel_tol:g} "
        f"within {spec.max_nodes} panels")


def doppler_average(f, v_d: float, spec: QuadratureSpec = QuadratureSpec()):
    """Average f(kv) over the Maxwellian weight of width v_d.

    f maps an array of kv samples to a sequence of complex component
    arrays (last axis = kv); the result is the tuple of their averages.
    For v_d below the cold threshold the kv = 0 values are returned
    exactly.

    If f raises SingularSystem at a Gauss-Hermite node the average
    falls back to :func:`trapezoid_average`.
    """
    if v_d < COLD_WIDTH:
        return tuple(v[..., 0] for v in f(np.zeros(1)))
    try:
        return _gauss_hermite_average(f, v_d, spec)
    except SingularSystem:
        return trapezoid_average(f, v_d, spec)


def trapezoid_average(f, v_d: float, spec: QuadratureSpec):
    """Adaptive-trapezoid average of f over [-truncation*v_d, +truncation*v_d].

    Same integrand convention as :func:`doppler_average`.  If f raises
    SingularSystem the nodes are re-staggered once; a pole that the
    shifted nodes hit as well sits on the real axis and PoleInSupport
    is raised.
    """
    # the retry shifts every node by an irrational-ish fraction of a panel
    for shift in (0.0, 0.37 * v_d / spec.node_count):
        try:
            return _trapezoid_average(f, v_d, spec, shift=shift)
        except SingularSystem as exc:
            error = exc
    raise PoleInSupport(
        "response pole on the real velocity axis inside the "
        f"integration window: {error}") from error


def hot_response(cfg: ValidatedConfig, grid) -> response_mod.OpticalResponse:
    """Doppler-averaged response on a 1-D probe-detuning grid.

    Each component is averaged with the full shifted-detuning rule
    (all alpha_i signs) applied at every quadrature node and comes back
    shaped like grid.  Grids go in chunks, the integrand in row blocks,
    to bound the batched 3x3 solves.
    """
    grid = np.asarray(grid, dtype=float)

    chunk = _CHUNK_BUDGET // QuadratureSpec().max_nodes
    parts = []
    for start in range(0, grid.size, chunk):
        sub = grid[start:start + chunk]

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
