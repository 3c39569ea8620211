"""First-order coherences of the driven four-level atom.

Steady state of the three coupled coherence equations for the vector
(rho_14, rho_13, rho_12), with unit ground-state population and the
probe fields kept to first order.  Two independent routes exist on
purpose:

* :func:`steady_betas` -- the authoritative 3x3 linear solve (LU)
  Y = -M^-1 X against unit probe drives X; the coherences are linear
  in omega_p and omega_b, so the betas never depend on them;
* :func:`closed_form_betas` -- the same four coefficients as entries
  of the adjugate of M over det M; the closed-form denominator D of
  the physics literature is 8 det M.

The two agree to 1e-10 wherever M is well conditioned (the test suite
enforces this), and one conditioning guard serves both: it
takes the Frobenius condition number of M from the same cofactors and
raises SingularSystem where that number is not finite or exceeds
COND_LIMIT.  :func:`solve_steady_state` is the bare batched solve.

All functions broadcast over numpy arrays of detunings / velocity
shifts, so a full (detuning grid) x (quadrature node) tensor can be
solved in one batched call.

Every function here reads the atom alone (SystemParams and the
shifted detunings): the betas depend on the drive fields, detunings
and decays only, never on the medium or its density coupling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CouplingOverflow, SingularSystem
from .params import SystemParams

# Frobenius condition number above which the steady-state system is
# treated as singular (double precision leaves ~4 digits of headroom).
COND_LIMIT = 1.0e12

# Unit probe drives as the columns of one right-hand side: (i/2, 0, 0)
# for omega_p, (0, i/2, 0) for omega_b; broadcasts over stacks of M.
_UNIT_DRIVES = np.array([[0.5j, 0.0], [0.0, 0.5j], [0.0, 0.0]])


@dataclass(frozen=True)
class ShiftedDetunings:
    """Detunings after the velocity (Doppler) replacement.

    d_p = delta_p + kv, d_b = delta_b + alpha_3*kv,
    d_1 = delta_1 + alpha_1*kv, d_2 = delta_2 + alpha_2*kv.
    Fields may be scalars or broadcast-compatible arrays.
    """

    d_p: object
    d_b: object
    d_1: object
    d_2: object


@dataclass(frozen=True)
class DenominatorTerms:
    """The complex diagonal terms A_1, A_3, A_2 of the coupled system."""

    a1: object
    a2: object
    a3: object


@dataclass(frozen=True)
class CoherenceCoefficients:
    """The four probe-response coefficients.

    rho_14 = omega_p*beta_ee + omega_b*beta_eb and
    rho_13 = omega_p*beta_be + omega_b*beta_bb reconstruct the
    steady-state coherences for any first-order probe amplitudes.
    """

    beta_ee: object
    beta_eb: object
    beta_be: object
    beta_bb: object


def shift_detunings(s: SystemParams, kv, delta_p) -> ShiftedDetunings:
    """Apply the velocity replacement at shift(s) ``kv`` and probe
    detuning(s) ``delta_p``; both arguments broadcast."""
    kv = np.asarray(kv, dtype=float)
    return ShiftedDetunings(
        d_p=np.asarray(delta_p, dtype=float) + kv,
        d_b=s.delta_b + s.alpha_3 * kv,
        d_1=s.delta_1 + s.alpha_1 * kv,
        d_2=s.delta_2 + s.alpha_2 * kv,
    )


def denominator_terms(s: SystemParams, sd: ShiftedDetunings) -> DenominatorTerms:
    """Complex diagonal terms of the coupled coherence equations.

    a1 = i*d_p - (g1+g2)/2 and a3 = i*d_b - (g1+g2)/2 carry the
    one-photon widths; the ground-state coherence term
    a2 = i*(d_p - d_2) - (g1+g2+g3+g4)/2 carries the two-photon
    detuning of the rho_12 equation.
    """
    g12 = 0.5 * (s.gamma_1 + s.gamma_2)
    gall = 0.5 * (s.gamma_1 + s.gamma_2 + s.gamma_3 + s.gamma_4)
    a1 = 1j * np.asarray(sd.d_p) - g12
    a3 = 1j * np.asarray(sd.d_b) - g12
    a2 = 1j * (np.asarray(sd.d_p) - np.asarray(sd.d_2)) - gall
    return DenominatorTerms(a1=a1, a2=a2, a3=a3)


def _couplings(s: SystemParams):
    """The off-diagonal entries (M01, M02, M10, M12, M20, M21) of M."""
    return (0.5j * s.omega_3 * np.exp(1j * s.phi), 0.5j * s.omega_2,
            0.5j * s.omega_3 * np.exp(-1j * s.phi), 0.5j * s.omega_1,
            0.5j * s.omega_2, -0.5j * s.omega_1)


def build_system_matrix(s: SystemParams, dt: DenominatorTerms):
    """Coefficient matrix M of the steady state, shape (..., 3, 3).

    Rows for the unknown vector (rho_14, rho_13, rho_12):

        row 0:  A1*rho_14 + (i/2)*O3*e^{+i phi}*rho_13 + (i/2)*O2*rho_12
        row 1:  (i/2)*O3*e^{-i phi}*rho_14 + A3*rho_13 + (i/2)*O1*rho_12
        row 2:  (i/2)*O2*rho_14 - (i/2)*O1*rho_13 + A2*rho_12

    Only the diagonal varies from point to point: M is one constant
    template of the control couplings with the terms ``dt`` written
    onto its diagonal.  The drives ((i/2)*omega_p, 0, 0) and
    (0, (i/2)*omega_b, 0) from the unit ground-state population enter
    in :func:`solve_steady_state`.
    """
    b, c, d, f, g, h = _couplings(s)
    template = np.array([[0, b, c], [d, 0, f], [g, h, 0]], dtype=complex)
    a1, a2, a3 = np.broadcast_arrays(dt.a1, dt.a2, dt.a3)
    M = np.empty(a1.shape + (3, 3), dtype=complex)
    M[...] = template
    M[..., 0, 0] = a1
    M[..., 1, 1] = a3
    M[..., 2, 2] = a2
    return M


def _cofactor_expansion(s: SystemParams, dt: DenominatorTerms):
    """det M, then the nine cofactors C00, C01, ..., C22 of M, one at a time.

    adj M = C^T.  Each cofactor is a product of two diagonal terms, or
    a coupling times one, plus a scalar; det M is the row-0 expansion.
    Yielded one by one, so a caller holds few (grid x node) arrays at once.
    """
    b, c, d, f, g, h = _couplings(s)
    a1, a2, a3 = dt.a1, dt.a2, dt.a3
    row0 = (a3 * a2 - f * h, f * g - d * a2, d * h - a3 * g)
    yield a1 * row0[0] + b * row0[1] + c * row0[2]
    yield from row0
    del row0
    yield c * h - b * a2
    yield a1 * a2 - c * g
    yield b * g - a1 * h
    yield b * f - c * a3
    yield c * d - a1 * f
    yield a1 * a3 - b * d


def _frobenius_cond(s: SystemParams, dt: DenominatorTerms):
    """Frobenius condition number ||M||_F * ||adj M||_F / |det M|, and det M.

    Built without assembling M; equal to the generic adjugate formula
    on the assembled matrix (the test oracle) to rounding.
    """
    expansion = _cofactor_expansion(s, dt)
    det = next(expansion)
    norm_adj = np.sqrt(sum(np.abs(x) ** 2 for x in expansion))
    # numpy scalars: the same pow, but inf on overflow instead of OverflowError
    couplings = sum(np.float64(abs(x)) ** 2 for x in _couplings(s))
    norm_m = np.sqrt(np.abs(dt.a3) ** 2 + np.abs(dt.a1) ** 2 + np.abs(dt.a2) ** 2
                     + couplings)
    return norm_m * norm_adj / np.abs(det), det


def _check_conditioning(s: SystemParams, dt: DenominatorTerms) -> None:
    """Raise unless M is well conditioned everywhere.

    SingularSystem where det M = 0 or the Frobenius condition number
    exceeds COND_LIMIT (naming the shifted probe detuning at the worst
    point); CouplingOverflow where the condition number is not finite
    although det M is not 0 (products of huge detunings or fields overflow).
    """
    with np.errstate(all="ignore"):  # overflow gives inf/nan, rejected below
        cond, det = _frobenius_cond(s, dt)
        if np.all(cond <= COND_LIMIT):
            return
        finite = np.isfinite(cond)
    if np.any(~finite & (det != 0)):
        raise CouplingOverflow("steady-state matrix overflows at huge detunings or fields")
    if not finite.all():
        raise SingularSystem("steady-state matrix is singular (det M = 0)")
    # Im a1 is the shifted probe detuning d_p
    worst = np.argmax(cond)
    d_p = float(np.broadcast_to(np.imag(dt.a1), np.shape(cond)).flat[worst])
    raise SingularSystem(
        f"steady-state matrix condition number {float(cond.flat[worst]):.3e} exceeds "
        f"{COND_LIMIT:.1e} at shifted probe detuning d_p = {d_p:.6g}")


def solve_steady_state(M) -> CoherenceCoefficients:
    """Beta coefficients from the system matrix by one batched solve.

    Solves Y = -M^-1 X against both unit probe drives at once; the
    rho_14 and rho_13 rows of Y are the coefficients of omega_p
    (first column) and omega_b (second column).  No conditioning check
    runs here: :func:`steady_betas` guards M before it is built.
    """
    Y = -np.linalg.solve(M, _UNIT_DRIVES)
    return CoherenceCoefficients(
        beta_ee=Y[..., 0, 0],
        beta_be=Y[..., 1, 0],
        beta_eb=Y[..., 0, 1],
        beta_bb=Y[..., 1, 1],
    )


def steady_betas(s: SystemParams, sd: ShiftedDetunings) -> CoherenceCoefficients:
    """Authoritative beta coefficients at the given shifted detunings.

    Computes the diagonal terms once, rejects a singular or
    ill-conditioned system (SingularSystem, Frobenius condition number
    above COND_LIMIT) from them, then runs build_system_matrix and
    solve_steady_state; defined for any probe amplitudes, zero
    included, since the betas never depend on them.
    """
    dt = denominator_terms(s, sd)
    _check_conditioning(s, dt)
    return solve_steady_state(build_system_matrix(s, dt))


def closed_form_betas(s: SystemParams, sd: ShiftedDetunings) -> CoherenceCoefficients:
    """Cross-check path: the betas from the adjugate of M.

    Y = -(adj M) X / det M, so beta_ee = k*C00, beta_be = k*C01,
    beta_eb = k*C10 and beta_bb = k*C11 with k = -(i/2) / det M.  The
    common denominator of the physics literature is
        D = 2*(O1*O2*O3*sin(phi) - O1^2*A1 + O3^2*A2 + O2^2*A3
             + 4*A1*A2*A3) = 8 det M.
    The guard of :func:`steady_betas` runs first, so both routes raise
    the same named error on the same systems.
    """
    dt = denominator_terms(s, sd)
    _check_conditioning(s, dt)
    expansion = _cofactor_expansion(s, dt)
    k = -0.5j / next(expansion)
    c00, c01, _, c10, c11 = itertools.islice(expansion, 5)
    return CoherenceCoefficients(beta_ee=k * c00, beta_eb=k * c10,
                                 beta_be=k * c01, beta_bb=k * c11)

