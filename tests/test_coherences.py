"""Steady-state coherence solve vs closed forms, plus matrix structure.

The golden beta values below were frozen from a 30-digit mpmath
evaluation of the closed-form expressions (independently re-derived
symbolically) and double-checked against the 3x3 linear solve; they
pin both computation paths to the same algebra.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralight import errors, presets
from chiralight.coherences import (COND_LIMIT, CoherenceCoefficients,
                                   DenominatorTerms, _check_conditioning,
                                   _cofactor_expansion, _frobenius_cond,
                                   build_system_matrix,
                                   closed_form_betas, denominator_terms,
                                   shift_detunings, steady_betas)
from chiralight.params import MediumParams, SystemParams, validate, with_overrides
from oracles import cofactors, cond_frobenius


def _cfg(**system):
    return validate(SystemParams(**system), MediumParams())

# Golden point A: subluminal-family decay rates, off-resonant probe,
# one counter-propagating drive.
POINT_A = dict(omega_1=0.1, omega_2=1.0, omega_3=0.7, phi=math.pi / 2,
               delta_p=0.3, delta_b=-0.2, delta_1=0.15, delta_2=0.05,
               gamma_1=0.1, gamma_2=0.1, gamma_3=0.1, gamma_4=0.1,
               alpha_1=1.0, alpha_2=1.0, alpha_3=-1.0)
KV_A = 0.4
BETAS_A = CoherenceCoefficients(
    beta_ee=-0.335436043566510196 + 0.760515783136318274j,
    beta_eb=-0.395280023010644752 - 0.155356787266822167j,
    beta_be=+0.395280023010644752 + 0.155356787266822167j,
    beta_bb=+0.749779034927037857 + 0.336519034437945205j,
)

# Golden point B: strong-decay family, generic phase, negative shift.
POINT_B = dict(omega_1=2.0, omega_2=2.0, omega_3=5.0, phi=1.1,
               delta_p=-1.3, delta_b=0.7, delta_1=-0.6, delta_2=0.25,
               gamma_1=2.0, gamma_2=2.0, gamma_3=2.0, gamma_4=2.0,
               alpha_1=-1.0, alpha_2=1.0, alpha_3=-1.0)
KV_B = -0.8
BETAS_B = CoherenceCoefficients(
    beta_ee=+0.0629022476993052027 + 0.0693794977420077271j,
    beta_eb=-0.0484891457638378529 - 0.0797220135126533557j,
    beta_be=-0.0446132406914229323 + 0.0858081036037613823j,
    beta_bb=-0.0767987825328357168 + 0.096433736592452616j,
)


def _assert_betas(got, want, rtol):
    for name in ("beta_ee", "beta_eb", "beta_be", "beta_bb"):
        g = complex(np.asarray(getattr(got, name)))
        w = getattr(want, name)
        assert abs(g - w) <= rtol * abs(w), f"{name}: {g} vs {w}"


@pytest.mark.parametrize("point,kv,want", [
    (POINT_A, KV_A, BETAS_A),
    (POINT_B, KV_B, BETAS_B),
])
@pytest.mark.parametrize("path", [steady_betas, closed_form_betas])
def test_golden_points(point, kv, want, path):
    s = _cfg(**point).system
    sd = shift_detunings(s, kv, s.delta_p)
    _assert_betas(path(s, sd), want, 1e-12)


def test_resonance_exact_rationals():
    """At the symmetric resonance the betas reduce to exact rationals."""
    s = _cfg().system  # omega = (0.1, 1, 0.7), gammas 0.1, all detunings 0
    sd = shift_detunings(s, 0.0, s.delta_p)
    b = closed_form_betas(s, sd)
    assert complex(b.beta_ee) == pytest.approx(7j / 27, rel=1e-14)
    assert complex(b.beta_eb) == pytest.approx(-2j / 3, rel=1e-14)
    assert complex(b.beta_be) == pytest.approx(+2j / 3, rel=1e-14)
    assert complex(b.beta_bb) == pytest.approx(4j, rel=1e-14)


def test_shift_detunings_applies_alpha_signs():
    s = SystemParams(delta_p=0.3, delta_b=-0.2, delta_1=0.15, delta_2=0.05,
                     alpha_1=1.0, alpha_2=1.0, alpha_3=-1.0)
    sd = shift_detunings(s, 0.4, s.delta_p)
    assert sd.d_p == pytest.approx(0.7)
    assert sd.d_b == pytest.approx(-0.6)   # counter-propagating
    assert sd.d_1 == pytest.approx(0.55)
    assert sd.d_2 == pytest.approx(0.45)


def test_denominator_terms_structure():
    s = SystemParams(delta_p=0.3, delta_2=0.05, gamma_1=0.1, gamma_2=0.3,
                     gamma_3=0.5, gamma_4=0.7)
    sd = shift_detunings(s, 0.0, s.delta_p)
    dt = denominator_terms(s, sd)
    assert complex(dt.a1) == pytest.approx(0.3j - 0.2)
    assert complex(dt.a3) == pytest.approx(0.0j - 0.2)
    # ground-state coherence: two-photon detuning and all four widths
    assert complex(dt.a2) == pytest.approx(0.25j - 0.8)


def test_system_matrix_matches_hand_expansion():
    s = _cfg(**POINT_A).system
    sd = shift_detunings(s, KV_A, s.delta_p)
    dt = denominator_terms(s, sd)
    M = build_system_matrix(s, dt)
    want = np.array([
        [dt.a1, 0.5j * s.omega_3 * np.exp(1j * s.phi), 0.5j * s.omega_2],
        [0.5j * s.omega_3 * np.exp(-1j * s.phi), dt.a3, 0.5j * s.omega_1],
        [0.5j * s.omega_2, -0.5j * s.omega_1, dt.a2],
    ])
    assert np.allclose(M, want, rtol=0, atol=0)


def test_betas_are_independent_of_probe_amplitudes():
    """The betas are the same bits for every probe amplitude, zero included."""
    s = _cfg(**POINT_A).system
    sd = shift_detunings(s, np.linspace(-1, 1, 5), s.delta_p)
    ref = steady_betas(s, sd)
    for omega_p in (0.0, 1e-3, 7.0):
        for omega_b in (0.0, 1e-3, 7.0):
            b = steady_betas(_cfg(omega_p=omega_p, omega_b=omega_b, **POINT_A).system, sd)
            for name in ("beta_ee", "beta_eb", "beta_be", "beta_bb"):
                assert np.array_equal(getattr(b, name), getattr(ref, name))


def test_two_level_limit():
    """With every control off, only the bare probe line survives."""
    s = _cfg(omega_1=0.0, omega_2=0.0, omega_3=0.0,
             gamma_1=0.1, gamma_2=0.3).system
    sd = shift_detunings(s, 0.0, s.delta_p)
    for path in (steady_betas, closed_form_betas):
        b = path(s, sd)
        assert complex(b.beta_ee) == pytest.approx(1j / 0.4, rel=1e-13)
        assert complex(b.beta_bb) == pytest.approx(1j / 0.4, rel=1e-13)
        assert abs(complex(b.beta_eb)) < 1e-15
        assert abs(complex(b.beta_be)) < 1e-15


def test_cross_coupling_antisymmetry_at_quarter_phase():
    """At phi = pi/2 the two cross coefficients are exact negatives."""
    s = _cfg(**POINT_A).system
    sd = shift_detunings(s, np.linspace(-2, 2, 9), s.delta_p)
    b = closed_form_betas(s, sd)
    assert np.allclose(np.asarray(b.beta_be), -np.asarray(b.beta_eb),
                       rtol=1e-14, atol=0)


def test_conjugate_relation_is_regime_limited():
    """beta_EB = conj(beta_BE) holds at the symmetric resonance only."""
    res = _cfg().system
    sd0 = shift_detunings(res, 0.0, res.delta_p)
    b0 = closed_form_betas(res, sd0)
    assert complex(b0.beta_eb) == pytest.approx(
        np.conj(complex(b0.beta_be)), rel=1e-14)
    # off resonance the relation visibly breaks; measured, not enforced
    off = _cfg(**POINT_A).system
    b = closed_form_betas(off, shift_detunings(off, KV_A, off.delta_p))
    dev = abs(complex(b.beta_eb) - np.conj(complex(b.beta_be)))
    assert dev > 0.1


def test_broadcast_grid_times_nodes():
    s = _cfg(**POINT_A).system
    grid = np.linspace(-1.0, 1.0, 7)
    nodes = np.linspace(-0.5, 0.5, 5)
    sd = shift_detunings(s, nodes[None, :], delta_p=grid[:, None])
    b = steady_betas(s, sd)
    assert np.asarray(b.beta_ee).shape == (7, 5)
    # spot-check one element against a scalar evaluation
    sd_one = shift_detunings(s, nodes[3], delta_p=grid[2])
    b_one = steady_betas(s, sd_one)
    assert np.asarray(b.beta_ee)[2, 3] == pytest.approx(
        complex(np.asarray(b_one.beta_ee)), rel=1e-14)


def test_singular_matrix_raises():
    # M = diag(1, 1, 1e-13): controls off, A1 = A3 = 1, A2 = 1e-13
    s = SystemParams(omega_1=0.0, omega_2=0.0, omega_3=0.0)
    dt = DenominatorTerms(a1=np.array([1.0 + 0j]), a2=np.array([1e-13 + 0j]),
                          a3=np.array([1.0 + 0j]))
    assert np.array_equal(build_system_matrix(s, dt)[0],
                          np.diag([1.0, 1.0, 1e-13]).astype(complex))
    with pytest.raises(errors.SingularSystem, match="condition number"):
        _check_conditioning(s, dt)
    # the message names the shifted probe detuning (Im a1) of the worst point
    dt = DenominatorTerms(a1=np.array([1.0 + 0.5j, 1.0 - 2.5j]),
                          a2=np.array([1.0 + 0j, 1e-13 + 0j]), a3=np.array([1.0 + 0j]))
    with pytest.raises(errors.SingularSystem,
                       match=r"condition number .* at shifted probe detuning d_p = -2\.5$"):
        _check_conditioning(s, dt)


_control = st.one_of(st.just(0.0), st.floats(0, 10))
_decay = st.floats(1e-3, 10)
_detuning = st.floats(-20, 20)
_sign = st.sampled_from((1.0, -1.0))


@settings(max_examples=200, deadline=None)
@given(
    o1=_control, o2=_control, o3=_control, phi=st.floats(0, 2 * math.pi),
    g1=_decay, g2=_decay, g3=_decay, g4=_decay,
    dp=_detuning, db=_detuning, d1=_detuning, d2=_detuning,
    a1=_sign, a2=_sign, a3=_sign, kv=_detuning,
)
def test_structured_condition_number_matches_generic_oracle(
        o1, o2, o3, phi, g1, g2, g3, g4, dp, db, d1, d2, a1, a2, a3, kv):
    """The guard's condition number and cofactors equal the adjugate
    formula on M."""
    s = SystemParams(omega_1=o1, omega_2=o2, omega_3=o3, phi=phi,
                     gamma_1=g1, gamma_2=g2, gamma_3=g3, gamma_4=g4,
                     delta_p=dp, delta_b=db, delta_1=d1, delta_2=d2,
                     alpha_1=a1, alpha_2=a2, alpha_3=a3)
    # a (detuning x node) grid, on which A3 broadcasts from the node axis
    sd = shift_detunings(s, np.array([[kv, 0.5 * kv, -kv, 0.0]]),
                         delta_p=np.array([[dp], [-dp], [dp + 1.0]]))
    dt = denominator_terms(s, sd)
    got, _ = _frobenius_cond(s, dt)
    want = cond_frobenius(build_system_matrix(s, dt))
    assert got.shape == want.shape == (3, 4)
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    expansion = list(_cofactor_expansion(s, dt))
    assert len(expansion) == 10
    det, cof = cofactors(build_system_matrix(s, dt))
    for mine, generic in zip(expansion, [det] + list(np.moveaxis(cof, -1, 0))):
        assert np.all(np.abs(mine - generic) <= 1e-12 * np.abs(generic))
    passes = bool(np.all(want <= COND_LIMIT))
    if passes:
        _check_conditioning(s, dt)
    else:
        with pytest.raises(errors.SingularSystem):
            _check_conditioning(s, dt)


@settings(max_examples=60, deadline=None)
@given(
    o1=st.floats(0.05, 5), o2=st.floats(0.05, 5), o3=st.floats(0.05, 5),
    g=st.floats(0.05, 5), phi=st.floats(0, 2 * math.pi),
    dp=st.floats(-5, 5), db=st.floats(-5, 5),
    d1=st.floats(-5, 5), d2=st.floats(-5, 5), kv=st.floats(-5, 5),
)
def test_oracle_equivalence_property(o1, o2, o3, g, phi, dp, db, d1, d2, kv):
    s = _cfg(omega_1=o1, omega_2=o2, omega_3=o3, phi=phi,
             delta_p=dp, delta_b=db, delta_1=d1, delta_2=d2,
             gamma_1=g, gamma_2=g, gamma_3=g, gamma_4=g).system
    sd = shift_detunings(s, kv, s.delta_p)
    solved = steady_betas(s, sd)
    closed = closed_form_betas(s, sd)
    for name in ("beta_ee", "beta_eb", "beta_be", "beta_bb"):
        a = complex(np.asarray(getattr(solved, name)))
        b = complex(np.asarray(getattr(closed, name)))
        scale = max(abs(a), abs(b), 1e-30)
        assert abs(a - b) / scale < 1e-10


_any_control = st.one_of(st.just(0.0), st.floats(0, 10), st.floats(0, 1e200))
_any_decay = st.one_of(st.floats(1e-13, 10), st.floats(1e-13, 1e200))
_any_detuning = st.one_of(st.floats(-20, 20), st.floats(-1e200, 1e200))


@settings(max_examples=300, deadline=None)
@given(
    o1=_any_control, o2=_any_control, o3=_any_control, phi=st.floats(0, 2 * math.pi),
    g1=_any_decay, g2=_any_decay, g3=_any_decay, g4=_any_decay,
    dp=_any_detuning, db=_any_detuning, d1=_any_detuning, d2=_any_detuning,
    a1=_sign, a2=_sign, a3=_sign, kv=_any_detuning,
)
# controls off, all decays 1e-13: condition number 7.07e12
@example(o1=0.0, o2=0.0, o3=0.0, phi=math.pi / 2, g1=1e-13, g2=1e-13, g3=1e-13,
         g4=1e-13, dp=1.0, db=1.0, d1=0.0, d2=1.0, a1=1.0, a2=1.0, a3=1.0, kv=0.0)
# products of the huge probe detuning overflow
@example(o1=0.1, o2=1.0, o3=0.7, phi=math.pi / 2, g1=0.1, g2=0.1, g3=0.1,
         g4=0.1, dp=1e200, db=0.0, d1=0.0, d2=0.0, a1=1.0, a2=1.0, a3=1.0, kv=0.0)
# condition number ~10, but beta_ee is 1e-9 beside a beta_bb of 2
@example(o1=0.0, o2=0.0, o3=1.0, phi=0.0, g1=1e-9, g2=1e-13, g3=1.0,
         g4=1.0, dp=1.0, db=0.0, d1=0.0, d2=0.0, a1=1.0, a2=1.0, a3=1.0, kv=0.0)
def test_both_routes_reject_the_same_systems(
        o1, o2, o3, phi, g1, g2, g3, g4, dp, db, d1, d2, a1, a2, a3, kv):
    """The solve and the closed form raise the same named error, or agree.

    Agreement is norm-wise, to 1e-10 of the largest beta: LU is accurate
    to rounding relative to the norm of M^-1, not entry by entry (in the
    third example beta_ee differs by 2.5e-9 of itself).
    """
    s = _cfg(omega_1=o1, omega_2=o2, omega_3=o3, phi=phi,
             gamma_1=g1, gamma_2=g2, gamma_3=g3, gamma_4=g4,
             delta_p=dp, delta_b=db, delta_1=d1, delta_2=d2,
             alpha_1=a1, alpha_2=a2, alpha_3=a3).system
    sd = shift_detunings(s, kv, s.delta_p)
    outcomes = []
    for path in (steady_betas, closed_form_betas):
        try:
            outcomes.append(path(s, sd))
        except errors.NumericalError as exc:
            outcomes.append(type(exc))
    solved, closed = outcomes
    if isinstance(solved, type) or isinstance(closed, type):
        assert solved is closed
        return
    names = ("beta_ee", "beta_eb", "beta_be", "beta_bb")
    pairs = [(complex(getattr(solved, n)), complex(getattr(closed, n))) for n in names]
    scale = max(max(abs(a), abs(b)) for a, b in pairs)
    for name, (a, b) in zip(names, pairs):
        assert abs(a - b) <= 1e-10 * scale, (name, a, b)



# A draw on which the random test above has failed (unit decays, zero
# detunings, kv = 0): condition number 8.6e8, inside COND_LIMIT, so
# both routes return betas.
ILL_CONDITIONED = SystemParams(omega_1=4763438.0, omega_2=1318689791.0,
                               omega_3=787369459.0, phi=0.0,
                               gamma_1=1.0, gamma_2=1.0, gamma_3=1.0, gamma_4=1.0,
                               delta_p=0.0, delta_b=0.0, delta_1=0.0, delta_2=0.0)


def _worst_rel_to_mpmath(path):
    """Worst relative error of path's betas at ILL_CONDITIONED against a
    40-digit mpmath solve of the same double M."""
    s = ILL_CONDITIONED
    sd = shift_detunings(s, 0.0, s.delta_p)
    got = path(s, sd)
    M = build_system_matrix(s, denominator_terms(s, sd))
    with mpmath.workdps(40):
        Mm = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in M])
        ee, be, _ = -mpmath.lu_solve(Mm, mpmath.matrix([0.5j, 0, 0]))
        eb, bb, _ = -mpmath.lu_solve(Mm, mpmath.matrix([0, 0.5j, 0]))
        want = {"beta_ee": ee, "beta_eb": eb, "beta_be": be, "beta_bb": bb}
        return max(float(abs(mpmath.mpc(complex(getattr(got, n))) - w) / abs(w))
                   for n, w in want.items())


def test_closed_form_matches_mpmath_on_the_ill_conditioned_draw():
    s = ILL_CONDITIONED
    cond, _ = _frobenius_cond(s, denominator_terms(s, shift_detunings(s, 0.0, s.delta_p)))
    assert 8.5e8 < float(cond) < 8.7e8
    assert _worst_rel_to_mpmath(closed_form_betas) < 1e-14


@pytest.mark.xfail(strict=True, reason="LU loses ~cond*eps; ROADMAP item 3 "
                   "makes the closed form production")
def test_steady_betas_match_mpmath_on_the_ill_conditioned_draw():
    assert _worst_rel_to_mpmath(steady_betas) < 1e-12

# ---------------------------------------------------------------------------
# causality of the probe response (docs/causality.md)


def _det_in_probe_detuning(s, kv):
    """det M as a polynomial in delta_p, and the causal bound on its roots.

    a1 and a2 are i*delta_p plus a constant and a3 does not depend on
    delta_p, so det M is expanded here from the assembled matrix at
    delta_p = 0 with polynomial entries.  The bound is minus the
    smallest eigenvalue of -(M + M^H)/2 there.
    """
    M = build_system_matrix(s, denominator_terms(s, shift_detunings(s, kv, delta_p=0.0)))
    P = [[np.poly1d([M[i, j]]) for j in range(3)] for i in range(3)]
    P[0][0], P[2][2] = np.poly1d([1j, M[0, 0]]), np.poly1d([1j, M[2, 2]])
    det = (P[0][0] * (P[1][1] * P[2][2] - P[1][2] * P[2][1])
           - P[0][1] * (P[1][0] * P[2][2] - P[1][2] * P[2][0])
           + P[0][2] * (P[1][0] * P[2][1] - P[1][1] * P[2][0]))
    margin = float(np.linalg.eigvalsh(-0.5 * (M + M.conj().T)).min())
    return det, -margin


def _threshold_ratio(s):
    g12 = 0.5 * (s.gamma_1 + s.gamma_2)
    gall = 0.5 * (s.gamma_1 + s.gamma_2 + s.gamma_3 + s.gamma_4)
    return s.omega_1 ** 2 / (4.0 * g12 * gall)


def test_det_is_quadratic_in_probe_detuning():
    s = SystemParams(**POINT_A)
    det, _ = _det_in_probe_detuning(s, KV_A)
    assert det.order == 2
    for dp in (-1.3, 0.2, 2.0):
        M = build_system_matrix(s, denominator_terms(s, shift_detunings(s, KV_A, delta_p=dp)))
        assert det(dp) == pytest.approx(np.linalg.det(M), rel=1e-12)


_gamma = st.floats(1e-3, 10)


@settings(max_examples=300, deadline=None)
@given(
    ratio=st.floats(0.0, 0.99), o2=st.floats(0, 10), o3=st.floats(0, 10),
    phi=st.floats(0, 2 * math.pi), g1=_gamma, g2=_gamma, g3=_gamma, g4=_gamma,
    db=st.floats(-20, 20), d2=st.floats(-20, 20),
    a1=_sign, a2=_sign, a3=_sign, kv=st.floats(-1e3, 1e3),
)
def test_poles_stay_in_the_lower_half_plane_below_the_threshold(
        ratio, o2, o3, phi, g1, g2, g3, g4, db, d2, a1, a2, a3, kv):
    """Below omega_1^2 = 4*g12*gall both poles of the response in delta_p
    lie at Im < 0 (the causal half-plane), for any kv and alpha signs,
    and at least as far down as the negative-definite margin of the
    Hermitian part of M."""
    g12, gall = 0.5 * (g1 + g2), 0.5 * (g1 + g2 + g3 + g4)
    s = SystemParams(omega_1=math.sqrt(ratio * 4.0 * g12 * gall), omega_2=o2,
                     omega_3=o3, phi=phi, gamma_1=g1, gamma_2=g2, gamma_3=g3,
                     gamma_4=g4, delta_b=db, delta_2=d2,
                     alpha_1=a1, alpha_2=a2, alpha_3=a3)
    assert _threshold_ratio(s) < 1.0
    det, bound = _det_in_probe_detuning(s, kv)
    assert det.order == 2 and bound < 0.0
    for z in det.roots:
        assert z.imag < 0.0
        assert z.imag <= bound + 1e-10 * max(1.0, abs(z))


def test_presets_sit_at_an_eighth_of_the_threshold():
    highest = set()
    for name in presets.names():
        s = presets.get(name).config().system
        assert _threshold_ratio(s) == pytest.approx(0.125, rel=1e-12)
        det, _ = _det_in_probe_detuning(s, 0.0)
        highest.add(round(float(max(det.roots.imag)), 2))
    assert min(highest) == -3.54 and max(highest) == -0.20


def test_a_strong_omega_1_moves_a_pole_into_the_upper_half_plane():
    # the subluminal family has threshold omega_1 = sqrt(0.08) = 0.283
    cfg = presets.get("fig2a").config()

    def highest(o1):
        s = with_overrides(cfg, system={"omega_1": o1}).system
        return float(max(_det_in_probe_detuning(s, 0.0)[0].roots.imag))

    assert highest(0.28) < 0.0 < highest(0.29)
    assert highest(3.0) == pytest.approx(21.3029, abs=1e-4)
