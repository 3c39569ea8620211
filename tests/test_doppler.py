"""Maxwellian velocity averaging: Gauss-Hermite, its oracles, hot response."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc, roots_hermite

from chiralight import doppler, errors, presets
from chiralight.doppler import COLD_WIDTH, doppler_average, hot_response
from chiralight.params import MediumParams, SystemParams, validate, with_overrides
from chiralight.response import response_at
from oracles import full_node_gauss_hermite_average, trapezoid_average

# closed form of (1/sqrt(pi)) * integral exp(-u^2)/(1 + i*u) du
LORENTZ_AVG = float(np.sqrt(np.pi) * np.e * erfc(1.0))

# spec0 is the production Gauss-Hermite average, spec1 the trapezoid
# oracle on a 6 V_D half-window (ids kept from earlier runs of the
# suite, so test histories stay comparable)
BOTH_AVERAGES = pytest.mark.parametrize(
    "average", [doppler_average, functools.partial(trapezoid_average, truncation=6.0)],
    ids=["spec0", "spec1"])


def _cfg(system=None, medium=None):
    return validate(SystemParams(**(system or {})), MediumParams(**(medium or {})))


@BOTH_AVERAGES
def test_constant_integrand_normalization(average):
    c = 2.3 - 0.7j
    for v_d in (0.01, 0.5, 3.0):
        (got,) = average(lambda kv: (np.full_like(kv, c, dtype=complex),), v_d)
        assert got == pytest.approx(c, rel=1e-12)


@BOTH_AVERAGES
def test_odd_integrand_vanishes(average):
    (got,) = average(lambda kv: (kv.astype(complex),), 1.3)
    assert abs(got) < 1e-12


@BOTH_AVERAGES
def test_lorentzian_golden_value(average):
    (got,) = average(lambda kv: (1.0 / (1.0 + 1j * kv),), 1.0)
    assert got.real == pytest.approx(LORENTZ_AVG, rel=1e-8)
    assert abs(got.imag) < 1e-10


def test_dual_quadrature_methods_agree():
    f = lambda kv: (1.0 / (1.0 + 1j * kv),)
    (gh,) = doppler_average(f, 1.0)
    (tz,) = trapezoid_average(f, 1.0, truncation=8.0, rel_tol=1e-10, max_panels=1 << 17)
    assert abs(gh - tz) / abs(gh) < 1e-8


def test_cold_shortcut_is_exact():
    calls = []

    def f(kv):
        calls.append(np.asarray(kv).copy())
        return (1.0 / (1.0 + 1j * kv),)

    (got,) = doppler_average(f, 0.5 * COLD_WIDTH)
    assert got == 1.0 + 0.0j  # f evaluated only at kv = 0
    assert len(calls) == 1 and np.all(calls[0] == 0.0)


def test_tuple_integrands_average_together():
    f = lambda kv: (np.ones_like(kv, dtype=complex), kv.astype(complex))
    const, odd = doppler_average(f, 0.7)
    assert const == pytest.approx(1.0, rel=1e-12)
    assert abs(odd) < 1e-12


def test_averaging_is_linear():
    f = lambda kv: 1.0 / (1.0 + 1j * kv)
    g = lambda kv: np.exp(1j * kv)
    a, b = 1.7, -0.4 + 0.2j
    (combined,) = doppler_average(lambda kv: (a * f(kv) + b * g(kv),), 1.0)
    (f_avg,) = doppler_average(lambda kv: (f(kv),), 1.0)
    (g_avg,) = doppler_average(lambda kv: (g(kv),), 1.0)
    separate = a * f_avg + b * g_avg
    assert combined == pytest.approx(separate, rel=1e-9)


def test_reflection_invariance_of_average(subluminal_cfg):
    """The even weight makes the average blind to kv -> -kv relabeling
    (the co/counter-propagation bookkeeping must not break this)."""
    def comps(kv):
        return response_at(subluminal_cfg, kv, delta_p=0.3).components()

    def comps_reflected(kv):
        return response_at(subluminal_cfg, -kv, delta_p=0.3).components()

    fwd = doppler_average(comps, 0.5)
    rev = doppler_average(comps_reflected, 0.5)
    for a, b in zip(fwd, rev):
        assert a == pytest.approx(b, rel=1e-9)


def test_node_doubling_converged(subluminal_cfg, monkeypatch):
    """Doubling the starting node count moves the result below REL_TOL."""
    def comps(kv):
        return response_at(subluminal_cfg, kv, delta_p=0.2).components()

    def average(node_count):
        monkeypatch.setattr(doppler, "NODE_COUNT", node_count)
        return doppler_average(comps, 0.5)

    a = average(64)
    b = average(128)
    for x, y in zip(a, b):
        assert abs(x - y) <= 1e-8 * max(abs(x), abs(y), 1e-30)


def test_singular_node_propagates_unchanged():
    """A SingularSystem raised by the integrand at a node is the error of
    the average: no second quadrature runs and nothing re-wraps it."""
    raised = errors.SingularSystem("condition number at a far node")
    calls = []

    def f(kv):
        calls.append(kv.size)
        if np.any(np.abs(kv) > 4.5):
            raise raised
        return (1.0 / (1.0 + 1j * kv),)

    with pytest.raises(errors.SingularSystem) as info:
        doppler_average(f, 1.0)
    assert info.value is raised
    assert calls == [doppler.NODE_COUNT]


def _outcome(average, f, v_d):
    """(error name and message, None) or (None, the averages)."""
    try:
        return None, average(f, v_d)
    except errors.ChiralightError as exc:
        return f"{type(exc).__name__}: {exc}", None


SIGN = st.sampled_from((1.0, -1.0))


@settings(max_examples=25, deadline=None)
@given(v_d=st.floats(0.05, 2.0), delta_p=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
       alphas=st.tuples(SIGN, SIGN, SIGN))
@example(v_d=0.5, delta_p=[0.0], alphas=(1.0, 1.0, 1.0))  # fig8ab: the 2048-node level
@example(v_d=1.0, delta_p=[0.0], alphas=(1.0, 1.0, 1.0))  # the 8192-node level
@example(v_d=1.0, delta_p=[0.0], alphas=(1.0, -1.0, 1.0))  # QuadratureNotConverged
def test_zero_weight_nodes_skipped_bit_for_bit(v_d, delta_p, alphas):
    """Evaluating only the nodes that carry weight gives the same bits (or
    the same error) as evaluating every node on the narrow fig8ab family,
    whose lines need 512 nodes and more, where the outer weights are 0.0."""
    cfg = with_overrides(presets.get("fig8ab").config(),
                         system=dict(zip(("alpha_1", "alpha_2", "alpha_3"), alphas)),
                         medium={"v_doppler": v_d})
    grid = np.array(delta_p)[:, None]

    def f(kv):
        return response_at(cfg, kv[None, :], delta_p=grid).components()

    got_error, got = _outcome(doppler_average, f, v_d)
    want_error, want = _outcome(full_node_gauss_hermite_average, f, v_d)
    assert got_error == want_error
    if want is not None:
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


LADDER = [doppler.NODE_COUNT << k
          for k in range((doppler.MAX_NODES // doppler.NODE_COUNT).bit_length())]


@pytest.mark.parametrize("n", LADDER)
def test_node_table_is_roots_hermite_bit_for_bit(n):
    """The shipped table rebuilds SciPy's rule exactly at every level."""
    x, w = roots_hermite(n)
    live = np.flatnonzero(w)
    lo, hi = int(live[0]), int(live[-1]) + 1
    got_x, got_w, got_lo, got_hi, top = doppler._hermite(n)
    assert (got_lo, got_hi) == (lo, hi)
    assert got_x.tobytes() == x[lo:hi].tobytes()
    assert got_w.tobytes() == w.tobytes()
    assert np.float64(top).tobytes() == x[-1].tobytes()


def test_node_table_ships_in_the_package():
    """The table resolves as package data and holds the ladder levels only."""
    from importlib import resources
    table = resources.files("chiralight").joinpath(doppler._TABLE)
    assert table.is_file()
    with table.open("rb") as fh, np.load(fh) as data:
        keys = set(data.files)
    assert LADDER[0] == 64 and LADDER[-1] == 16384
    assert keys == {f"{k}{n}" for n in LADDER for k in ("x", "w", "top")}


def test_only_weighted_nodes_are_evaluated():
    """Every kv handed to the integrand is v_d * x_i with w_i != 0, each
    level sees all of those nodes, and from 512 nodes on fewer than n."""
    cfg = presets.get("fig8ab").config()
    v_d = cfg.medium.v_doppler
    seen = []

    def f(kv):
        seen.append(kv.copy())
        return response_at(cfg, kv, delta_p=0.0).components()

    doppler_average(f, v_d)
    sizes = [doppler.NODE_COUNT << i for i in range(len(seen))]
    assert sizes[-1] >= 2048
    for n, kv in zip(sizes, seen):
        x, w = roots_hermite(n)
        assert np.array_equal(kv, v_d * x[w != 0])
        assert kv.size < n or n < 512


def test_quadrature_not_converged(monkeypatch):
    # a single refinement level can never satisfy the two-level check
    monkeypatch.setattr(doppler, "MAX_NODES", doppler.NODE_COUNT)
    with pytest.raises(errors.QuadratureNotConverged) as info:
        doppler_average(lambda kv: (1.0 / (1.0 + 1j * kv),), 1.0)
    assert str(info.value) == "Gauss-Hermite average not converged to 1e-08 within 64 nodes"


def test_hot_response_cold_limit(subluminal_cfg, default_cfg):
    from chiralight.params import with_overrides
    tiny = with_overrides(subluminal_cfg, medium={"v_doppler": 1e-7})
    grid = np.linspace(-2, 2, 41)
    hot = hot_response(tiny, grid)
    cold = response_at(tiny, 0.0, delta_p=grid)
    for a, b in zip(hot.components(), cold.components()):
        err = np.max(np.abs(np.asarray(a) - np.asarray(b)))
        assert err <= 1e-6 * np.max(np.abs(np.asarray(b)))
    # below COLD_WIDTH the average returns the kv = 0 response bit for bit
    for v_d in (0.0, 0.5 * COLD_WIDTH):
        cold_cfg = with_overrides(subluminal_cfg, medium={"v_doppler": v_d})
        hot = hot_response(cold_cfg, grid)
        cold = response_at(cold_cfg, 0.0, delta_p=grid)
        for a, b in zip(hot.components(), cold.components()):
            assert np.array_equal(a, b)


def test_hot_absorption_exceeds_cold_at_resonance(subluminal_cfg):
    cold = response_at(subluminal_cfg, 0.0, subluminal_cfg.system.delta_p)
    hot = hot_response(subluminal_cfg, np.zeros(1))
    assert hot.chi_e.shape == (1,)
    assert hot.chi_e[0].imag > float(np.asarray(cold.chi_e).imag)


def test_hot_response_scalar_and_chunked_grid_agree(subluminal_cfg):
    """Each point averaged on its own (a one-point grid) agrees with the
    whole grid averaged at once."""
    grid = np.linspace(-1, 1, 5)
    full = hot_response(subluminal_cfg, grid)
    for i, d in enumerate(grid):
        one = hot_response(subluminal_cfg, grid[i:i + 1])
        assert one.chi_e.shape == (1,)
        assert full.chi_e[i] == pytest.approx(one.chi_e[0], rel=1e-9)


def test_row_blocks_keep_every_bit_and_cut_the_peak(subluminal_cfg, monkeypatch):
    """The integrand in row blocks equals one whole-chunk batch bit for
    bit, and the solve tensors no longer set the traced peak."""
    grid = np.linspace(-1, 1, 41)

    def run(budget):
        monkeypatch.setattr(doppler, "_BLOCK_BUDGET", budget)
        tracemalloc.start()
        try:
            out = hot_response(subluminal_cfg, grid)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole, whole_peak = run(10**9)
    blocked, blocked_peak = run(512)
    for a, b in zip(blocked.components(), whole.components()):
        assert np.array_equal(a, b)
    assert blocked_peak < 0.7 * whole_peak


def test_thermal_width_family_is_monotone_at_resonance():
    """Stepping V_D in the strong-drive family raises the resonance
    absorption monotonically (re-filling of the transparency window)."""
    vals = []
    for vd in (0.0, 0.1, 0.2, 0.3):
        cfg = _cfg(system={"omega_2": 4.0}, medium={"v_doppler": vd})
        vals.append(hot_response(cfg, np.zeros(1)).chi_e[0].imag)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_grid_is_averaged_in_groups_of_61_points():
    """The points of a group share one convergence test, so the group
    size fixes the bits: a grid averages as its 61-point groups do.  The
    near-resonance points 0.0 and 0.05 sit at both ends, so a group of
    30, 60, 62, 64 or 122 points gives other bits."""
    cfg = presets.get("fig8ab").config()
    grid = np.concatenate([[0.0], np.linspace(5.0, 10.0, 60), [0.05]])
    whole = hot_response(cfg, grid)
    groups = [hot_response(cfg, grid[:61]), hot_response(cfg, grid[61:])]
    for a, *parts in zip(whole.components(), *(g.components() for g in groups)):
        assert np.array_equal(a, np.concatenate(parts))
