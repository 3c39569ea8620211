"""Compact, tolerance-checkable summaries of program outputs.

A full cold_scan draw produces ~60k doubles, so the references stored
with the benchmark keep, per output field, the values at a few fixed
positions plus the complex sum and the sum of magnitudes.  A change
anywhere in an array moves the sums; a local change at a sampled
position moves that sample.  Both are compared relative to the scale
of the field (its largest magnitude), which is how the acceptance
criteria state their tolerances.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

N_SAMPLES = 9

# Quantities defined as 1 - x (or as a ratio near zero) are compared on
# the scale of 1, not of their own tiny magnitude.
UNIT_SCALE = {"distortion", "relative_error"}


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def array_fp(values) -> dict:
    a = np.asarray(values).ravel()
    n = a.size
    idx = sorted({int(round(i)) for i in np.linspace(0, n - 1, N_SAMPLES)}) if n else []
    return {
        "n": n,
        "idx": idx,
        "v": [_pair(a[i]) for i in idx],
        "sum": _pair(a.sum()),
        "abs": float(np.abs(a).sum()),
        "max": float(np.abs(a).max()) if n else 0.0,
    }


def fingerprint(outputs: dict) -> dict:
    """Summarize {field: array | number | str} into a JSON-able dict."""
    fp = {}
    for key, val in outputs.items():
        if isinstance(val, str):
            fp[key] = {"s": val}
        elif np.ndim(val) == 0:
            fp[key] = {"x": _pair(val)}
        else:
            fp[key] = array_fp(val)
    return fp


def _close(a, r, tol, scale, atol=0.0) -> bool:
    return abs(complex(*a) - complex(*r)) <= max(tol * scale, atol)


def compare(got: dict, ref: dict, tol, atol: dict | None = None) -> list:
    """Mismatch descriptions between two fingerprints (empty = equal).

    tol is a relative tolerance, or a {field: tol} map with a "*"
    default; atol maps fields to an absolute tolerance (a root finder's
    own xtol) that may replace it.
    """
    atol = atol or {}
    tols = tol if isinstance(tol, dict) else {"*": tol}
    bad = []
    if set(got) != set(ref):
        return [f"fields differ: {sorted(set(got) ^ set(ref))}"]
    for key, r in ref.items():
        g = got[key]
        a = atol.get(key, 0.0)
        tol = tols.get(key, tols["*"])
        if "s" in r:
            if g.get("s") != r["s"]:
                bad.append(f"{key}: {g.get('s')!r} != {r['s']!r}")
        elif "x" in r:
            scale = max(abs(complex(*r["x"])), 1.0 if key in UNIT_SCALE else 0.0)
            if "x" not in g or not _close(g["x"], r["x"], tol, scale, a):
                bad.append(f"{key}: {g.get('x')} != {r['x']}")
        else:
            if g.get("n") != r["n"] or g.get("idx") != r["idx"]:
                bad.append(f"{key}: length {g.get('n')} != {r['n']}")
                continue
            scale = r["max"]
            if key in UNIT_SCALE:
                scale = max(scale, 1.0)
            for i, gv, rv in zip(r["idx"], g["v"], r["v"]):
                if not _close(gv, rv, tol, scale, a):
                    bad.append(f"{key}[{i}]: {gv} != {rv}")
                    break
            if not _close(g["sum"], r["sum"], tol, max(r["abs"], 1e-300), a * r["n"]):
                bad.append(f"{key}: sum {g['sum']} != {r['sum']}")
            elif not math.isclose(g["abs"], r["abs"], rel_tol=tol, abs_tol=a * r["n"]):
                bad.append(f"{key}: sum|x| {g['abs']} != {r['abs']}")
    return bad


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def table_outputs(header: list, rows: list) -> dict:
    """Columns of a CSV table as numeric arrays plus a digest of the text cells."""
    out = {"columns": ",".join(header), "rows": str(len(rows))}
    for j, name in enumerate(header):
        cells = [row[j] if j < len(row) else "" for row in rows]
        nums = [_number(c) for c in cells]
        text = [(i, c) for i, (c, x) in enumerate(zip(cells, nums)) if x is None]
        if len(text) < len(cells):
            out[name] = np.array([0.0 if x is None else x for x in nums])
        if text:
            out[name + ".text"] = hashlib.sha256(repr(text).encode()).hexdigest()
    return out


def _json_leaves(doc, prefix, out):
    if isinstance(doc, dict):
        for k, v in doc.items():
            _json_leaves(v, f"{prefix}.{k}" if prefix else k, out)
    elif isinstance(doc, list):
        if doc and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in doc):
            out[prefix] = np.array(doc, dtype=float)
        else:
            for i, v in enumerate(doc):
                _json_leaves(v, f"{prefix}[{i}]", out)
    elif isinstance(doc, bool) or doc is None or isinstance(doc, str):
        out[prefix] = json.dumps(doc)
    else:
        out[prefix] = float(doc)


def cli_outputs(stdout: str) -> dict:
    """Parse CLI stdout (CSV or JSON) into comparable fields."""
    text = stdout.lstrip()
    if text.startswith("{") or text.startswith("["):
        out = {}
        _json_leaves(json.loads(stdout), "", out)
        return out
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows:
        return {"columns": "", "rows": "0"}
    return table_outputs(rows[0], rows[1:])


def cli_row_count(stdout: str) -> int:
    """Data rows of a CSV output, or 1 per JSON document."""
    text = stdout.lstrip()
    if not text:
        return 0
    if text.startswith("{") or text.startswith("["):
        return 1
    return max(stdout.count("\n") - 1, 0)
