"""Response assembly: susceptibilities and chirality coefficients."""

import numpy as np
import pytest

from chiralight import coherences, errors, presets
from chiralight.coherences import CoherenceCoefficients, closed_form_betas, shift_detunings
from chiralight.optics import group_index_at
from chiralight.params import MediumParams, SystemParams, validate, with_overrides
from chiralight.response import (OpticalResponse, response_at,
                                 response_from_betas, spectrum)

from test_coherences import KV_A, POINT_A

# Frozen 30-digit evaluation of the response assembly at golden point A
# with kappa_e = 0.8 and the default dipole ratio r_mu = 5.3e-5.
RESPONSE_A = OpticalResponse(
    chi_e=-0.268348835090711247 + 0.608412626288255769j,
    chi_m=+1.68490344955506198e-9 + 7.56225576737284625e-10j,
    xi_eh=-1.67598729989087508e-5 - 6.58712780388617881e-6j,
    xi_he=+1.67598729989087508e-5 + 6.58712780388617881e-6j,
)


def _cfg(system=None, medium=None):
    return validate(SystemParams(**(system or {})), MediumParams(**(medium or {})))


def test_golden_response_point_a():
    cfg = _cfg(system=POINT_A, medium={"density_coupling": 0.8})
    got = response_at(cfg, KV_A)
    for name in ("chi_e", "chi_m", "xi_eh", "xi_he"):
        g = complex(np.asarray(getattr(got, name)))
        w = getattr(RESPONSE_A, name)
        assert abs(g - w) <= 1e-12 * abs(w), name


def test_zero_dipole_ratio_decouples_exactly():
    cfg = _cfg(system=POINT_A, medium={"dipole_ratio": 0.0,
                                       "density_coupling": 0.8})
    r = response_at(cfg, KV_A)
    betas = closed_form_betas(cfg, shift_detunings(cfg.system, KV_A))
    assert complex(np.asarray(r.chi_m)) == 0
    assert complex(np.asarray(r.xi_eh)) == 0
    assert complex(np.asarray(r.xi_he)) == 0
    assert complex(np.asarray(r.chi_e)) == pytest.approx(
        0.8 * complex(np.asarray(betas.beta_ee)), rel=1e-14)


def test_first_order_series_in_kappa_m():
    """With r_mu = 5.3e-5 the feedback denominator is a tiny correction."""
    cfg = _cfg(system=POINT_A)
    b = closed_form_betas(cfg, shift_detunings(cfg.system, KV_A))
    r = response_at(cfg, KV_A)
    kappa_m = cfg.medium.density_coupling * cfg.medium.dipole_ratio ** 2
    kappa_x = cfg.medium.density_coupling * cfg.medium.dipole_ratio
    first = kappa_m * complex(np.asarray(b.beta_bb))
    # chi_m agrees with its first-order series to second order
    assert abs(complex(np.asarray(r.chi_m)) - first) <= 2 * abs(first) ** 2
    series_e = (cfg.medium.density_coupling * complex(np.asarray(b.beta_ee))
                + kappa_x ** 2 * complex(np.asarray(b.beta_eb))
                * complex(np.asarray(b.beta_be)))
    assert complex(np.asarray(r.chi_e)) == pytest.approx(series_e, rel=1e-8)


def test_degenerate_magnetic_feedback_raises():
    betas = CoherenceCoefficients(beta_ee=1.0j, beta_eb=0.1j, beta_be=0.1j,
                                  beta_bb=4.0 + 0.0j)
    with pytest.raises(errors.DegenerateMagnetic):
        response_from_betas(  # kappa_m*bb = 1
            betas, MediumParams(density_coupling=1.0, dipole_ratio=0.5))


def test_spectrum_single_point_matches_response_at():
    cfg = _cfg()
    one = spectrum(cfg, [0.37], mode="cold")
    ref = response_at(cfg, 0.0, delta_p=0.37)
    for a, b in zip(one.components(), ref.components()):
        assert np.asarray(a)[0] == complex(np.asarray(b))


def test_spectrum_order_matches_grid():
    cfg = _cfg()
    grid = np.array([-1.0, 0.0, 2.0])
    full = spectrum(cfg, grid, mode="cold")
    for i, d in enumerate(grid):
        ref = response_at(cfg, 0.0, delta_p=d)
        assert np.asarray(full.chi_e)[i] == complex(np.asarray(ref.chi_e))


def test_spectrum_mode_validation():
    with pytest.raises(ValueError, match="mode"):
        spectrum(_cfg(), [0.0], mode="warm")


def test_resonance_absorption_magnitude(subluminal_cfg):
    """Im chi_e at resonance is ~0.2 once kappa_e is near its
    calibrated value (0.26 at kappa_e = 1)."""
    r = response_at(subluminal_cfg, 0.0)
    assert 0.2 < float(np.asarray(r.chi_e).imag) < 0.3


def test_strong_drive_suppresses_electric_absorption():
    """omega_2 = 4 quenches electric absorption at resonance while the
    magnetic absorption is enhanced."""
    base = _cfg(system=dict(POINT_A, delta_p=0, delta_b=0, delta_1=0,
                            delta_2=0, alpha_3=1.0))
    strong = _cfg(system=dict(POINT_A, omega_2=4.0, delta_p=0, delta_b=0,
                              delta_1=0, delta_2=0, alpha_3=1.0))
    r0 = response_at(base, 0.0)
    r1 = response_at(strong, 0.0)
    ratio_e = float(np.asarray(r1.chi_e).imag) / float(np.asarray(r0.chi_e).imag)
    ratio_m = float(np.asarray(r1.chi_m).imag) / float(np.asarray(r0.chi_m).imag)
    assert ratio_e < 0.12
    assert ratio_m > 1.0


def test_chirality_tracks_susceptibility_slopes(subluminal_cfg):
    """Slope signs at resonance: xi_HE follows chi_e, xi_EH follows chi_m."""
    g = np.array([-0.01, 0.01])
    r = spectrum(subluminal_cfg, g, mode="cold")

    def slope(c):
        c = np.asarray(c)
        return float(c[1].real - c[0].real)

    assert np.sign(slope(r.xi_he)) == np.sign(slope(r.chi_e))
    assert np.sign(slope(r.xi_eh)) == np.sign(slope(r.chi_m))


def test_magnetic_response_is_small_everywhere(subluminal_cfg):
    grid = np.linspace(-10, 10, 201)
    r = spectrum(subluminal_cfg, grid, mode="cold")
    assert np.all(np.abs(np.asarray(r.chi_m)) < np.abs(np.asarray(r.chi_e)))


def test_response_scales_linearly_in_kappa_to_leading_order():
    cfg1 = _cfg(medium={"density_coupling": 1.0})
    cfg2 = _cfg(medium={"density_coupling": 2.0})
    r1 = response_at(cfg1, 0.0)
    r2 = response_at(cfg2, 0.0)
    # the feedback denominator makes this approximate at the 1e-8 level
    assert complex(np.asarray(r2.chi_e)) == pytest.approx(
        2 * complex(np.asarray(r1.chi_e)), rel=1e-7)


# ---------------------------------------------------------------------------
# beta reuse scope (the betas do not depend on kappa_e)


def _fig8ab(kappa=1.0, **system):
    return with_overrides(presets.get("fig8ab").config(), system=system,
                          medium={"density_coupling": kappa})


@pytest.fixture
def steady_calls(monkeypatch):
    """Count steady_betas calls made through the coherences module."""
    calls = []
    real = coherences.steady_betas

    def counted(p, sd):
        calls.append(p.system)
        return real(p, sd)

    monkeypatch.setattr(coherences, "steady_betas", counted)
    return calls


@pytest.mark.parametrize("mode", ["cold", "hot"])
def test_reused_betas_leave_group_index_bit_identical(mode):
    kappas = (3.92e-8, 1.0, 4.5e3)  # across a calibrate bracket
    outside = [group_index_at(_fig8ab(k), 0.0, mode=mode).N_g for k in kappas]
    with coherences.reuse_betas():
        inside = [group_index_at(_fig8ab(k), 0.0, mode=mode).N_g for k in kappas]
    assert inside == outside


def test_second_kappa_on_same_stencil_solves_nothing(steady_calls):
    with coherences.reuse_betas():
        group_index_at(_fig8ab(1.0), 0.0, mode="hot")
        first = len(steady_calls)
        assert first > 0
        group_index_at(_fig8ab(2.0), 0.0, mode="hot")
        assert len(steady_calls) == first
    # outside the scope every evaluation solves again
    group_index_at(_fig8ab(2.0), 0.0, mode="hot")
    assert len(steady_calls) == 2 * first


def test_changed_control_field_misses_the_memo(steady_calls):
    grid = np.linspace(-1.0, 1.0, 5)
    with coherences.reuse_betas():
        response_at(_fig8ab(), 0.0, delta_p=grid)
        response_at(_fig8ab(kappa=2.0), 0.0, delta_p=grid)
        assert len(steady_calls) == 1
        response_at(_fig8ab(omega_3=1.3), 0.0, delta_p=grid)
        assert len(steady_calls) == 2
        assert steady_calls[-1].omega_3 == 1.3


def test_memo_dropped_when_scope_exits():
    cfg = _fig8ab()
    with coherences.reuse_betas():
        response_at(cfg, 0.0, delta_p=[0.0, 0.1])
        assert len(coherences._memo.get()) == 1
    assert coherences._memo.get() is None
    with pytest.raises(RuntimeError):
        with coherences.reuse_betas():
            response_at(cfg, 0.0, delta_p=[0.0, 0.1])
            raise RuntimeError("abort inside the scope")
    assert coherences._memo.get() is None
