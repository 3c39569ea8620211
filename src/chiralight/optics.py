"""Chiral refractive index, group index, group velocity and delay.

The chiral refractive index is

    n = sqrt((1 + chi_e)*(1 + chi_m) - (xi_EH + xi_HE)^2/4)
        + (i/2)*(xi_EH - xi_HE)

with the square-root branch chosen by continuity along the spectrum,
seeded at the grid point farthest from the branch point (maximal
|1 + chi_e|) and anchored so the zero-response limit gives +1.

The group index keeps the complex index all the way through and takes
the real part only at the end:

    N_g = Re[ n + (omega_14 - Delta_p) * dn/dDelta_p ]

with dn/dDelta_p from Richardson-extrapolated central differences.
Group velocity and delay follow definitionally: v_g = c/N_g and
tau = L*(N_g - 1)/c (negative = advance).  The first-order dispersion
data of a pulse (n_0, g_vd) come from the same stencil at band center.
The crossover and the calibration find their roots with Brent's
method (``_brent``), which follows SciPy's brentq bit for bit without
importing SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import doppler, response as response_mod
from .errors import (BranchJump, GridTooCoarse, NoCrossoverInRange,
                     NonPositiveTolerance, NoRootInBracket, NumericalError,
                     RootSearchFailed)
from .params import C_LIGHT, ValidatedConfig, finite, with_overrides

# |n_{i+1} - n_i| above this along a spectrum means the branch tracker
# lost continuity.
BRANCH_JUMP_LIMIT = 0.5

# Default detuning step (units of gamma) for the group-index stencil.
DEFAULT_STEP = 1.0e-3

# Richardson error estimate above this fraction of the derivative
# magnitude raises GridTooCoarse.
DERIVATIVE_RTOL = 0.01

# Relative tolerance and iteration limit of every root search: SciPy's
# brentq defaults, 4 machine epsilons and 100 iterations.
ROOT_RTOL = 4 * math.ulp(1.0)
ROOT_MAXITER = 100


@dataclass(frozen=True)
class DispersionPoint:
    """Index and group quantities at the caller's detuning(s).

    Fields are scalars at one detuning, arrays shaped like the grid on
    a curve.  n_complex is the full complex index before taking the real
    part.  v_g*N_g = c and tau = L*(N_g - 1)/c hold.
    """

    n_complex: object
    N_g: object
    v_g: object
    tau: object


def _tracked_sqrt(w, seed_idx):
    """Continuity-tracked square root along a 1-D complex path w.

    The relative sign between consecutive points is chosen to minimize
    the jump; the overall sign is anchored at seed_idx with Re >= 0
    (Im >= 0 as tie-break), i.e. continuous with the vacuum value +1.
    """
    r = np.sqrt(w)
    keep = np.abs(r[1:] - r[:-1])
    flip = np.abs(r[1:] + r[:-1])
    rel = np.where(flip < keep, -1.0, 1.0)
    sign = np.concatenate(([1.0], rel)).cumprod()
    anchor = sign[seed_idx] * r[seed_idx]
    if anchor.real < 0 or (anchor.real == 0 and anchor.imag < 0):
        sign = -sign
    return sign * r


def refractive_index(resp: response_mod.OpticalResponse, delta_p):
    """Complex chiral index along a 1-D detuning path, branch-tracked.

    The response components are 1-D arrays evaluated at the detunings
    delta_p (one point is a path of length one); a branch jump is
    reported between the two detunings it falls between.
    """
    w = (1.0 + resp.chi_e) * (1.0 + resp.chi_m) - 0.25 * (resp.xi_eh + resp.xi_he) ** 2
    root = _tracked_sqrt(w, int(np.argmax(np.abs(1.0 + resp.chi_e))))
    jumps = np.abs(np.diff(root))
    if jumps.size and float(jumps.max()) > BRANCH_JUMP_LIMIT:
        i = int(np.argmax(jumps))
        raise BranchJump(
            f"refractive-index branch discontinuity {jumps.max():.3g} "
            f"(> {BRANCH_JUMP_LIMIT}) between Delta_p = {delta_p[i]:.12g} "
            f"and {delta_p[i + 1]:.12g}")
    return root + 0.5j * (resp.xi_eh - resp.xi_he)


def _richardson(y_m2, y_m1, y_p1, y_p2, h):
    """Richardson-extrapolated derivative from samples at -2h, -h, +h, +2h.

    Returns (deriv, error estimate); broadcasts over array samples.
    """
    d_h = (y_p1 - y_m1) / (2 * h)
    d_2h = (y_p2 - y_m2) / (4 * h)
    return (4.0 * d_h - d_2h) / 3.0, np.abs(d_h - d_2h) / 3.0


_STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def spectrum(cfg: ValidatedConfig, grid, mode: str = "cold") -> response_mod.OpticalResponse:
    """Response on a detuning grid; fields are arrays ordered like the grid.

    mode "cold" evaluates at kv = 0; mode "hot" Doppler-averages at the
    medium's v_doppler.
    """
    grid = np.asarray(grid, dtype=float)
    if mode == "cold":
        return response_mod.response_at(cfg, 0.0, delta_p=grid)
    if mode == "hot":
        return doppler.hot_response(cfg, grid)
    raise ValueError(f"mode must be 'cold' or 'hot', got {mode!r}")


def _index_at(cfg, points, mode):
    """Complex index at detunings ``points``, shaped like them.

    Each distinct detuning is evaluated once; the sorted distinct
    detunings form one branch-tracked path, so all points agree on the
    square-root branch.  Also returns the response at the distinct
    detunings and ``inverse``, which maps points into them.
    """
    points = np.asarray(points, dtype=float)
    xs, inverse = np.unique(points.ravel(), return_inverse=True)
    resp = spectrum(cfg, xs, mode=mode)
    inverse = inverse.reshape(points.shape)
    return refractive_index(resp, xs)[inverse], resp, inverse


def group_index_curve(cfg: ValidatedConfig, grid, mode: str = "cold",
                      return_response: bool = False):
    """Dispersion quantities on a detuning grid (array-valued point).

    The derivative at each grid point comes from a dedicated local
    five-point stencil of spacing DEFAULT_STEP, all stencils evaluated
    in one branch-tracked pass, so the output grid may be as coarse as
    desired without degrading N_g.  Raises GridTooCoarse if the
    Richardson error estimate exceeds 1% of the derivative.  With
    return_response=True also returns the OpticalResponse at the grid
    centers.
    """
    h = DEFAULT_STEP
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    n5, resp, inverse = _index_at(cfg, grid[:, None] + h * _STENCIL, mode)
    deriv, est = _richardson(n5[:, 0], n5[:, 1], n5[:, 3], n5[:, 4], h)
    floor = 1e-6 * max(float(np.max(np.abs(deriv))), 1e-300)
    bad = est > DERIVATIVE_RTOL * np.maximum(np.abs(deriv), floor)
    if np.any(bad):
        i = int(np.argmax(est / np.maximum(np.abs(deriv), floor)))
        raise GridTooCoarse(
            f"derivative error estimate {est[i]:.3g} exceeds 1% of "
            f"|dn/dDelta_p|={abs(deriv[i]):.3g} at Delta_p={grid[i]:g} "
            f"(step h={h:g})")
    n_c = n5[:, 2]
    n_g = np.real(n_c + (cfg.medium.omega_14 - grid) * deriv)
    with np.errstate(divide="ignore"):
        v_g = C_LIGHT / n_g
    tau = cfg.medium.length_L * (n_g - 1.0) / C_LIGHT
    curve = DispersionPoint(n_complex=n_c, N_g=n_g, v_g=v_g, tau=tau)
    if return_response:
        return curve, response_mod.OpticalResponse(
            *(np.asarray(c)[inverse[:, 2]] for c in resp.components()))
    return curve


def group_index_at(cfg: ValidatedConfig, delta_p: float,
                   mode: str = "cold") -> DispersionPoint:
    """Dispersion quantities at a single detuning (scalar fields)."""
    curve = group_index_curve(cfg, [delta_p], mode=mode)
    return DispersionPoint(*(np.asarray(getattr(curve, f.name))[0].item()
                             for f in curve.__dataclass_fields__.values()))


def dispersion_coefficients(cfg: ValidatedConfig, mode: str = "cold") -> dict:
    """First-order dispersion data of the medium at band center.

    n_0 is the group index at zero probe detuning; g_vd (SI s^2/m) is
    (1/c) dN_g/domega there, with the detuning-to-frequency mapping
    omega = omega_0 + Delta_p*gamma_unit.
    """
    h = DEFAULT_STEP
    ng = group_index_curve(cfg, h * _STENCIL, mode=mode).N_g
    dng, _ = _richardson(ng[0], ng[1], ng[3], ng[4], h)
    g_vd = dng / (C_LIGHT * cfg.medium.gamma_unit)
    return {"n_0": float(ng[2]), "g_vd": float(g_vd)}


def delay_table(scenarios) -> list:
    """Evaluate named scenarios into (N_g, v_g, tau) rows.

    scenarios is an iterable of (name, cfg, mode) with the probe
    detuning taken from each cfg.  Numerical failures annotate the row
    instead of aborting the table.
    """
    rows = []
    for name, cfg, mode in scenarios:
        row = {"scenario": name, "mode": mode, "n_g": None, "v_g": None,
               "tau_ns": None, "error": None}
        try:
            pt = group_index_at(cfg, cfg.system.delta_p, mode=mode)
            row.update(n_g=pt.N_g, v_g=pt.v_g, tau_ns=pt.tau * 1e9)
        except NumericalError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def _evaluate(f, x):
    """f(x) as a float; raises RootSearchFailed if it is NaN."""
    fx = float(f(x))
    if math.isnan(fx):
        raise RootSearchFailed(f"the function is NaN at x = {x!r}; "
                               "the root search cannot continue")
    return fx


def _brent(f, lo, hi, no_root, xtol):
    """Brent's root of f on [lo, hi]; returns (root, f(root)).

    Evaluates f at lo, then at hi, and raises no_root(f(lo), f(hi)) if
    their signs agree, two zero ends included (SciPy returns lo there).
    A step-for-step transcription of the C brentq in SciPy
    (scipy/optimize/Zeros/brentq.c, after R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4) at rtol = ROOT_RTOL:
    the root and the points evaluated are bit-identical to SciPy's
    brentq(f, lo, hi, xtol=xtol).  xcur is the latest estimate, xpre
    the previous one and xblk the contrapoint; spre and scur are the
    previous and current steps.  Raises RootSearchFailed on a NaN f or
    after ROOT_MAXITER iterations.
    """
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = _evaluate(f, xpre), _evaluate(f, xcur)
    if np.sign(fpre) == np.sign(fcur):
        raise no_root(fpre, fcur)
    if fpre == 0:
        return xpre, fpre
    if fcur == 0:
        return xcur, fcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(ROOT_MAXITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, fcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf  # C gets inf or nan, which bisects
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _evaluate(f, xcur)
    raise RootSearchFailed(f"no convergence after {ROOT_MAXITER} iterations "
                           f"of the root search; last point x = {xcur!r}")


def superluminal_crossover(cfg: ValidatedConfig, omega3_lo: float,
                           omega3_hi: float, xtol: float = 1.0e-3) -> float:
    """Control-field strength where cold and hot group indices cross.

    Finds the root of N_g_cold(omega_3) - N_g_hot(omega_3) at the probe
    detuning stored in cfg by Brent's method.  Raises
    NonPositiveTolerance unless xtol is finite and > 0, and
    RootSearchFailed on a NaN difference or after ROOT_MAXITER
    iterations.
    """
    if not (finite(xtol) and xtol > 0):
        raise NonPositiveTolerance(f"xtol must be finite and > 0, got {xtol!r}")

    def gap(o3):
        c = with_overrides(cfg, system={"omega_3": float(o3)})
        return (group_index_at(c, c.system.delta_p, mode="cold").N_g
                - group_index_at(c, c.system.delta_p, mode="hot").N_g)

    def no_root(g_lo, g_hi):
        ends = f"[{float(omega3_lo)!r}, {float(omega3_hi)!r}]"  # unrounded
        if g_lo == 0 and g_hi == 0:
            return NoCrossoverInRange("hot and cold group indices are identical at "
                                      f"both ends of {ends} (zero thermal width?)")
        return NoCrossoverInRange(
            f"N_g_cold - N_g_hot has the same sign ({g_lo:.3g}, {g_hi:.3g}) "
            f"at both ends of {ends}")

    return _brent(gap, omega3_lo, omega3_hi, no_root, xtol)[0]


def calibrate_coupling(cfg: ValidatedConfig, target: float, delta_p: float,
                       lo: float, hi: float, mode: str = "cold"):
    """(kappa_e, achieved N_g) for N_g(delta_p) = target, kappa_e in [lo, hi].

    Raises NoRootInBracket unless N_g - target changes sign over the
    bracket, and RootSearchFailed on a NaN N_g or after ROOT_MAXITER
    iterations.
    """
    def gap(kappa):
        c = with_overrides(cfg, medium={"density_coupling": float(kappa)})
        return group_index_at(c, delta_p, mode=mode).N_g - target

    def no_root(g_lo, g_hi):
        return NoRootInBracket(
            f"N_g({float(lo)!r}) - target = {g_lo:.6g} and "  # unrounded ends and target
            f"N_g({float(hi)!r}) - target = {g_hi:.6g} have the same sign; "
            f"the target group index {float(target)!r} is not reachable in this bracket")

    # the betas do not depend on kappa_e: solve each stencil input once
    with response_mod.reuse_betas():
        kappa, g_root = _brent(gap, lo, hi, no_root, 1e-30)
    return kappa, g_root + target
