"""The span tracer of ``bench/tracing.py`` still sees every layer.

``bench/run.py --trace 1`` reports per-layer counts through
``Tracer.install``, which wraps the public functions of the package by
name.  A refactor of ``src/`` that renames or bypasses them would zero
those counts silently; this test fails instead.
"""

import importlib.util
import pathlib

import numpy as np

from chiralight import doppler, optics, presets
from chiralight.params import with_overrides

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_tracer_counts_coherence_and_doppler_work():
    cfg = presets.get("fig4a").config()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        optics.group_index_curve(cfg, [0.0], mode="hot")
        optics.group_index_curve(cfg, np.array([-0.5, 0.5]), mode="cold")
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    for name in ("coherences.points", "coherences.build_s", "coherences.solve_s",
                 "doppler.evals"):
        assert m[name] > 0, name


def test_tracer_counts_one_evaluation_per_point_and_weighted_node(monkeypatch):
    """doppler.evals of one hot group_index_at on fig8ab is the five
    stencil points times the weighted nodes, summed over the levels the
    average climbed.  The tracer counts from the first component of the
    integrand's sequence, so an integrand that returned one stacked
    array of the four components would read four times this."""
    cfg = presets.get("fig8ab").config()
    levels = []
    hermite = doppler._hermite
    monkeypatch.setattr(doppler, "_hermite", lambda n: levels.append(n) or hermite(n))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        optics.group_index_at(cfg, 0.0, mode="hot")
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    live = [x.size for x, _ in map(hermite, levels)]
    assert levels == [doppler.NODE_COUNT << k for k in range(6)]  # up to 2048 nodes
    assert m["doppler.levels"] == len(levels)
    assert m["doppler.evals"] == len(optics._STENCIL) * sum(live) == 13640
    assert m["doppler.max_nodes"] == live[-1]


def test_tracer_counts_a_level_in_row_blocks_exactly(monkeypatch):
    """From the 512-node level on, a 7-point fig8ab curve at v_d = 1 (a
    35-point stencil grid) is solved in several row blocks.  doppler.evals
    still counts every point at every weighted node: the integrand's
    level of row blocks carries the level's size, without which the
    tracer would read one evaluation per level."""
    cfg = with_overrides(presets.get("fig8ab").config(), medium={"v_doppler": 1.0})
    levels = []
    hermite = doppler._hermite
    monkeypatch.setattr(doppler, "_hermite", lambda n: levels.append(n) or hermite(n))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        optics.group_index_curve(cfg, np.linspace(-1.0, 1.0, 7), mode="hot")
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    live = [x.size for x, _ in map(hermite, levels)]
    assert levels == [doppler.NODE_COUNT << k for k in range(8)]  # up to 8192 nodes
    assert 35 * live[3] > doppler._BLOCK_BUDGET  # 512 nodes: two row blocks
    assert m["doppler.levels"] == len(levels)
    assert m["doppler.evals"] == 35 * sum(live)
    assert m["doppler.max_nodes"] == live[-1]
