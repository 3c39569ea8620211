"""Maxwellian velocity averaging: Gauss-Hermite, its oracles, hot response."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc, roots_hermite

from chiralight import doppler, errors, optics, presets
from chiralight.doppler import COLD_WIDTH, doppler_average, hot_response
from chiralight.params import MediumParams, SystemParams, validate, with_overrides
from chiralight.response import response_at
from oracles import _rel_change as oracle_rel_change
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
@example(v_d=0.5, delta_p=[0.0, 0.5], alphas=(1.0, -1.0, 1.0))  # alpha_2 = -1: 8192 nodes
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


COMPLEX = st.builds(complex, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))


@settings(max_examples=40, deadline=None)
@given(v_d=st.floats(0.05, 20.0),
       poles=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.003, 1.0), COMPLEX, COMPLEX),
                      min_size=1, max_size=4),
       shifts=st.none() | st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
@example(v_d=0.3, poles=[(0.0, 1.0, 1 + 0j, 0j)], shifts=None)  # below 512 nodes
@example(v_d=1.0, poles=[(0.0, 0.2, 1 + 0j, 0.5j)], shifts=None)  # 4096 nodes, 1-D
@example(v_d=7.0, poles=[(0.1, 0.25, 1j, 1 + 0j), (-0.5, 0.3, 2 + 0j, 0j),
                         (1.0, 0.5, -1 + 1j, 1j), (0.0, 0.2, 1 + 0j, 1 + 0j)],
         shifts=[-0.3, 0.0, 0.4])  # 4096 nodes, 2-D
@example(v_d=1.0, poles=[(0.0, 0.003, 1 + 0j, 0j)], shifts=[0.0])  # QuadratureNotConverged
def test_rational_integrands_match_the_full_node_ladder_bit_for_bit(v_d, poles, shifts):
    """The production ladder returns the bits (or the error) of the
    all-node oracle on random rational integrands: per component
    (a + b*u) / ((u - r)^2 + g^2) in u = kv/v_d, 1-D in kv or 2-D with
    one row per shifted point, from lines broad enough to stop below
    512 nodes to lines narrow enough to climb past MAX_NODES."""
    def f(kv):
        u = kv / v_d if shifts is None else kv[None, :] / v_d + np.array(shifts)[:, None]
        return [(a + b * u) / ((u - r) ** 2 + g ** 2) for r, g, a, b in poles]

    got_error, got = _outcome(doppler_average, f, v_d)
    want_error, want = _outcome(full_node_gauss_hermite_average, f, v_d)
    assert got_error == want_error
    if want is not None:
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 1e300, np.inf, -np.inf, np.nan])
ENTRY = st.builds(complex, SPECIAL | st.floats(-10.0, 10.0), SPECIAL | st.floats(-10.0, 10.0))
NAN, INF = float("nan"), float("inf")
ZEROS = [0j] * 12


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 4), points=st.sampled_from([(), (1,), (3,)]),
       new=st.lists(ENTRY, min_size=12, max_size=12), old=st.lists(ENTRY, min_size=12, max_size=12),
       floor=st.lists(SPECIAL | st.floats(0.0, 10.0), min_size=4, max_size=4))
@example(k=1, points=(), new=[complex(NAN, 1.0)] + ZEROS[1:],
         old=[complex(0.0, -INF)] + ZEROS[1:], floor=[1.0] * 4)  # NaN peak, inf change: skipped
@example(k=2, points=(), new=[0.5 + 0j, 2.0 + 0j] + ZEROS[2:], old=[0.25 + 0j, 2.0 + 0j] + ZEROS[2:],
         floor=[NAN, 1.0, 1.0, 1.0])  # a NaN floor leaves the peak as the scale
def test_convergence_test_is_the_per_component_loop(k, points, new, old, floor):
    """The array reductions of doppler._rel_change give what the oracle's
    per-component loop under Python's max gives, NaN, inf, signed zeros
    and NaN floors included."""
    shape = (k,) + points
    size = int(np.prod(shape))
    new, old = (np.array(v[:size]).reshape(shape) for v in (new, old))
    floor = np.array(floor[:k])
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, as in both
        got = doppler._rel_change(new, old, floor)
        want = oracle_rel_change(new, old, floor)
    assert got == want


def test_a_nan_component_does_not_hold_the_ladder():
    """The convergence test skips a component whose change is NaN, as
    Python's max over the components always has: an integrand with one
    NaN component returns at the level the others converge at, with that
    average NaN and the others' bits as they are without it (an
    np.maximum over the components would raise QuadratureNotConverged
    instead)."""
    def lorentz(kv):
        return 1.0 / (1.0 + 1j * kv)

    def f(kv):
        return lorentz(kv), np.full(kv.shape, complex(np.nan, np.nan)), 1.0 / (2.0 - 1j * kv)

    for v_d in (1.0, 5.0):  # converges below 512 nodes, and on the padded levels
        got = doppler_average(f, v_d)
        alone = doppler_average(lambda kv: (lorentz(kv), 1.0 / (2.0 - 1j * kv)), v_d)
        assert np.isnan(got[1])
        assert np.array_equal(got[0], alone[0]) and np.array_equal(got[2], alone[1])
        want = full_node_gauss_hermite_average(f, v_d)
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want, strict=True))


LADDER = [doppler.NODE_COUNT << k
          for k in range((doppler.MAX_NODES // doppler.NODE_COUNT).bit_length())]


@pytest.mark.parametrize("n", LADDER)
def test_node_table_is_roots_hermite_bit_for_bit(n):
    """The shipped table rebuilds SciPy's rule exactly at every level."""
    x, w = roots_hermite(n)
    live = np.flatnonzero(w)
    lo, hi = int(live[0]), int(live[-1]) + 1
    got_x, got_w = doppler._hermite(n)
    assert (lo, hi) == (n // 2 - got_w.size // 2, n // 2 + got_w.size // 2)
    assert got_x.tobytes() == x[lo:hi].tobytes()
    assert got_w.tobytes() == w[lo:hi].tobytes()
    assert not np.any(w[:lo]) and not np.any(w[hi:])


@pytest.mark.parametrize("n", [n for n in LADDER if n >= 512])
def test_trimmed_row_sums_as_the_full_row_bit_for_bit(n):
    """_weighted_sum sums a padded level over the centred power-of-two
    span of 2h columns that holds the weighted nodes lo:hi, not over all
    n.  numpy's pairwise summation (Higham, SIAM J. Sci. Comput. 14
    (1993) 783) sums runs of up to 128 elements in an unrolled loop and
    splits longer runs in halves, so for power-of-two n that span is a
    subtree whose outside sums to exact zeros: the span's sum is the
    full row's bit for bit.  A numpy release that changes the block
    size or the halving fails here first."""
    _, w_live = doppler._hermite(n)
    lo, hi = n // 2 - w_live.size // 2, n // 2 + w_live.size // 2
    w = np.zeros(n)
    w[lo:hi] = w_live
    h = 1 << (n // 2 - lo - 1).bit_length()
    # padded; 512 to 2048 nodes keep their width
    assert lo > 0 and {4096: 2048, 8192: 4096, 16384: 4096}.get(n, n) == 2 * h
    rng = np.random.default_rng(n)
    for points in ((), (1,), (5,), (35,), (61,)):
        shape = points + (hi - lo,)
        vals = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(4)]
        for row in (vals[0], np.abs(vals[0])):
            full = np.zeros(points + (n,), dtype=row.dtype)
            full[..., lo:hi] = row
            span = full[..., n // 2 - h:n // 2 + h].copy()
            assert span.sum(-1).tobytes() == full.sum(-1).tobytes()
        for magnitude in (False, True):
            full = np.zeros((len(vals),) + points + (n,), dtype=float if magnitude else complex)
            full[..., lo:hi] = np.abs(vals) if magnitude else vals
            want = (full * w).sum(-1)
            got = doppler._weighted_sum(vals, w_live, n, magnitude=magnitude)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_node_table_ships_in_the_package():
    """The table resolves as package data and holds the ladder levels only."""
    from importlib import resources
    table = resources.files("chiralight").joinpath(doppler._TABLE)
    assert table.is_file()
    with table.open("rb") as fh, np.load(fh) as data:
        keys = set(data.files)
    assert LADDER[0] == 64 and LADDER[-1] == 16384
    assert keys == {f"{k}{n}" for n in LADDER for k in ("x", "w")}


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


def test_overflow_check_reads_the_largest_evaluated_node():
    """The overflow check is on v_d times the largest node the average
    evaluates.  At v_d = 6.2e306 the outermost of 512 nodes (31.43) would
    overflow, but it carries weight 0.0 and is never evaluated; the
    largest weighted one (26.98) does not, so the 512-node level runs
    and the average converges at 1024 nodes to the closed form
    exp(-625) ~ 0, within 1e-12.  At 2e307 the 64-node level overflows."""
    v_d = 6.2e306
    sizes = []

    def f(kv):
        sizes.append(kv.size)
        return (np.cos(50 * (kv / v_d)),)

    (got,) = doppler_average(f, v_d)
    assert abs(got) < 1e-12
    assert sizes == [doppler._hermite(doppler.NODE_COUNT << k)[0].size for k in range(5)]
    assert sizes[3] < 512  # the padded 512-node level was evaluated
    v_d = 2e307
    with pytest.raises(errors.CouplingOverflow) as info:
        doppler_average(f, v_d)
    assert str(info.value) == "Gauss-Hermite nodes overflow at v_d = 2e+307"
    assert len(sizes) == 5  # no node evaluated at 2e307


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
    """The integrand in row blocks equals one whole-group batch bit for
    bit, with 1, 2 or one block per row on the padded 2048-node level
    (1072 weighted nodes) where this grid converges, and the solve
    tensors no longer set the traced peak."""
    grid = np.linspace(-1, 1, 41)
    solve = doppler.response_mod.response_at
    calls = []
    monkeypatch.setattr(doppler.response_mod, "response_at",
                        lambda cfg, kv, delta_p: calls.append((kv.size, delta_p.size)) or
                        solve(cfg, kv, delta_p=delta_p))

    def run(budget):
        monkeypatch.setattr(doppler, "_BLOCK_BUDGET", budget)
        calls.clear()
        tracemalloc.start()
        try:
            out = hot_response(subluminal_cfg, grid)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole, whole_peak = run(10**9)
    assert calls[-1] == (1072, 41)
    for budget, rows in ((41 * 1072, [41]), (21 * 1072, [21, 20]), (1072, [1] * 41),
                         (512, [1] * 41)):
        blocked, blocked_peak = run(budget)
        assert [r for kv, r in calls if kv == 1072] == rows
        for a, b in zip(blocked.components(), whole.components()):
            assert a.tobytes() == b.tobytes()
    assert blocked_peak < 0.7 * whole_peak


def test_an_error_in_a_row_block_is_the_error_of_the_average():
    """A SingularSystem raised while a later row block of a level is
    solved reaches the caller unchanged, and no block after it is
    solved: neither the rest of the level nor the next level."""
    cfg = with_overrides(presets.get("fig8ab").config(), medium={"v_doppler": 1.0})
    grid = np.linspace(-1.0, 1.0, 35)
    raised = errors.SingularSystem("condition number in a later row block")
    solve = doppler.response_mod.response_at
    for bad, rows in ((17, [15, 15]), (34, [15, 15, 5])):  # a middle row, the last row
        calls = []

        def planted(c, kv, delta_p):
            calls.append((kv.size, delta_p.size))
            if kv.size == 1072 and grid[bad] in delta_p:
                raise raised
            return solve(c, kv, delta_p=delta_p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(doppler.response_mod, "response_at", planted)
            with pytest.raises(errors.SingularSystem) as info:
                hot_response(cfg, grid)
        assert info.value is raised
        # the 2048-node level runs in blocks of 15, 15 and 5 rows; the
        # planted one is the last solved
        assert [r for kv, r in calls if kv == 1072] == rows
        assert calls[-1][0] == 1072


# tracemalloc peak of the test below (numpy 2.4.6, Python 3.11.7): 13.75 MB
# with one zeroed row per component and sum and the previous level's values
# alive while f built the next; 10.30 MB with one full-width row and a row
# block's response and denominator terms alive into the next block's solve;
# 8.79 MB with the trimmed row and those freed, which left the level's whole
# values (4.7 MB) and one block's M (2.1 MB) and Y (1.4 MB) at the peak;
# 4.04 MB with each row block summed as it is solved, which leaves one
# block's M and Y, for 35 points or 61
STENCIL_GRID_PEAK_BOUND = 4_300_000


def test_stencil_grid_peak_is_no_higher_than_before():
    """hot_response on a 35-point fig8ab stencil grid at v_d = 1, which
    climbs to the 8192-node level, peaks under tracemalloc no higher
    than one row block's solve arrays allow.  So does a full 61-point
    group, whose 8192-node level held whole would take 8.6 MB: the peak
    does not grow with a group's point count."""
    cfg = with_overrides(presets.get("fig8ab").config(), medium={"v_doppler": 1.0})
    stencil = (np.linspace(-1.0, 1.0, 7)[:, None] + optics.DEFAULT_STEP * optics._STENCIL).ravel()
    assert stencil.size == 35
    hermite = doppler._hermite
    for grid in (stencil, np.linspace(-1.0, 1.0, doppler._GROUP_SIZE)):
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(doppler, "_hermite", lambda n: seen.append(n) or hermite(n))
            hot_response(cfg, grid)  # loads the node table outside the trace
        assert max(seen) == 8192
        tracemalloc.start()
        try:
            hot_response(cfg, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= STENCIL_GRID_PEAK_BOUND, grid.size


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
