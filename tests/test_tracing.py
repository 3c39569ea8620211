"""The span tracer of ``bench/tracing.py`` still sees every layer.

``bench/run.py --trace 1`` reports per-layer counts through
``Tracer.install``, which wraps the public functions of the package by
name.  A refactor of ``src/`` that renames or bypasses them would zero
those counts silently; this test fails instead.
"""

import importlib.util
import pathlib

import numpy as np

from chiralight import optics, presets

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
