"""Span tracing of the chiralight layers from outside the package.

``Tracer.install`` replaces every public module-level function of the
traced modules by a wrapper that records a span (name, start, end,
parent span, operation id).  The wrapper is bound under every name in
every ``chiralight`` module namespace that held the original, so calls
made inside the package (``from .params import with_overrides`` in
``optics``, ``response_mod.response_at`` in ``doppler``) are recorded
too.  Spans stay in memory; ``layer_metrics`` reduces them and
``dump`` writes them out.

A span's self time is its duration minus that of its direct child
spans.  The benchmark opens one root span for the traced phase and one
per operation, so the self times of all spans add up to the traced
wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("coherences", "response", "doppler", "optics", "pulse", "params", "cli")
BENCH = "bench"

# Self time of a span is credited to the nearest same-layer ancestor (or
# itself) named here, e.g. denominator_terms called from
# build_system_matrix counts as coherences.build_s.
BUCKETS = {
    "coherences": {"build_system_matrix": "build_s", "solve_steady_state": "solve_s",
                   "closed_form_betas": "closed_form_s"},
    "optics": {"refractive_index": "index_s", "group_index_curve": "curve_self_s"},
    "pulse": {"propagate_numeric": "numeric_self_s", "pulse_metrics": "metrics_s"},
}

SOLVE_BYTES_PER_POINT = 9 * 16  # one complex 3x3 system matrix


def _points(sd) -> int:
    return int(np.broadcast(sd.d_p, sd.d_b, sd.d_1, sd.d_2).size)


class Tracer:
    def __init__(self):
        # span: [key, start, end, parent index, op id, extra dict or None]
        self.spans = []
        self._stack = []
        self.op_id = None
        self._restore = []

    # -------------------------------------------------------------- spans
    def open(self, key, extra=None) -> list:
        rec = [key, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op_id, extra]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = getattr(self, "_pre_" + name, None)
        after = getattr(self, "_post_" + name, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [key, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            if before is not None:
                args = before(rec, args)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(rec, args, result)
            return result
        return wrapper

    # Hooks that record counts at the layer boundary.
    def _post_steady_betas(self, rec, args, result):
        rec[5] = {"points": _points(args[1])}

    _post_closed_form_betas = _post_steady_betas

    def _post_hot_response(self, rec, args, result):
        rec[5] = {"detunings": int(np.size(args[1]))}

    def _post_propagate_numeric(self, rec, args, result):
        rec[5] = {"samples": int(np.size(result.samples))}

    def _pre_doppler_average(self, rec, args):
        stats = {"levels": 0, "evals": 0, "last": 0, "max_nodes": 0, "batch": 0}
        rec[5] = stats
        f = args[0]

        def counted(kv):
            values = f(kv)
            first = values[0] if isinstance(values, (tuple, list)) else values
            batch = int(np.size(first))
            stats["levels"] += 1
            stats["evals"] += batch
            stats["last"] = batch
            stats["max_nodes"] = max(stats["max_nodes"], int(np.size(kv)))
            stats["batch"] = max(stats["batch"], batch)
            return values
        return (counted,) + tuple(args[1:])

    # ------------------------------------------------------- installation
    def install(self):
        targets = [(layer, importlib.import_module(f"chiralight.{layer}"))
                   for layer in LAYERS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "chiralight" or n.startswith("chiralight.")]
        for layer, mod in targets:
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    # ----------------------------------------------------------- analysis
    def layer_metrics(self) -> dict:
        spans = self.spans
        n = len(spans)
        dur = np.array([s[2] - s[1] for s in spans])
        child = np.zeros(n)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_t = dur - child

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = 0.0
            m[f"{layer}.calls"] = 0
        for layer, names in BUCKETS.items():
            for b in names.values():
                m[f"{layer}.{b}"] = 0.0
        m[f"{BENCH}.self_s"] = 0.0
        bucket = [None] * n
        points = evals = last = levels = avg_calls = max_nodes = batch = 0
        detunings = samples = point_calls = 0
        for i, (key, _, _, parent, _, extra) in enumerate(spans):
            layer, name = key
            m[f"{layer}.self_s"] += self_t[i]
            same = parent >= 0 and spans[parent][0][0] == layer
            if layer != BENCH and not same:
                m[f"{layer}.calls"] += 1
            named = BUCKETS.get(layer, {}).get(name)
            bucket[i] = named or (bucket[parent] if same else None)
            if bucket[i]:
                m[f"{layer}.{bucket[i]}"] += self_t[i]
            if extra:
                points += extra.get("points", 0)
                detunings += extra.get("detunings", 0)
                samples += extra.get("samples", 0)
                if name == "doppler_average":
                    avg_calls += 1
                    evals += extra["evals"]
                    last += extra["last"]
                    levels += extra["levels"]
                    max_nodes = max(max_nodes, extra["max_nodes"])
                    batch = max(batch, extra["batch"])
            if name == "group_index_at":
                point_calls += 1

        m["coherences.points"] = points
        m["coherences.ns_per_point"] = (m["coherences.self_s"] / points * 1e9
                                        if points else 0.0)
        m["doppler.evals"] = evals
        m["doppler.evals_per_point"] = evals / detunings if detunings else 0.0
        m["doppler.levels"] = levels / avg_calls if avg_calls else 0.0
        m["doppler.max_nodes"] = max_nodes
        m["doppler.useful_ratio"] = last / evals if evals else 0.0
        m["doppler.batch_bytes_peak"] = batch * SOLVE_BYTES_PER_POINT
        m["optics.point_calls"] = point_calls
        m["pulse.samples"] = samples
        m["trace.spans"] = n
        return m

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {k: i for i, k in enumerate(names)}
        doc = {"names": [list(k) for k in names],
               "fields": ["name", "start", "end", "parent", "op", "extra"],
               "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]]
                         for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
