"""Report-only comparison of benchmark result sets (from ``sweep.py``).

    python3 bench/compare.py SET.jsonl            # spread of one set
    python3 bench/compare.py BASE.jsonl NEW.jsonl # one row per workload x metric

Spread is the interquartile range over the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them).  A comparison row
gives both medians and quartiles and a verdict:

* unresolved -- either side spreads more than the metric's bound, and
  the runs do not separate completely;
* better / worse -- the medians differ in that direction by more than
  the larger spread (better) or by more than the bound (worse);
* within-bound -- otherwise: not better, and not worse by more than
  the bound.

There is no combined score.  Bounds and directions are read from
BENCHMARK.json; metrics without a bound (per-layer) use 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """{(workload, metric): [values]} from a result-set file."""
    values = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                values[(rec["workload"], name)].append(m["value"])
    return values


def stats(vals) -> tuple:
    if len(vals) < 2:
        v = vals[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(vals) -> float:
    q1, med, q3 = stats(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m.get("bound", 0.0)) for m in spec["per_layer"]}
    out.update({m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]})
    return out


def verdict(base, new, better, bound) -> str:
    _, mb, _ = stats(base)
    _, mn, _ = stats(new)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (mn - mb) / abs(mb) if mb else 0.0
    wide = max(spread(base), spread(new))
    # every run of one side reads better than every run of the other
    lo_new, hi_new = sorted((sign * min(new), sign * max(new)))
    lo_base, hi_base = sorted((sign * min(base), sign * max(base)))
    separated = ("better" if lo_new > hi_base else
                 "worse" if hi_new < lo_base else None)
    if bound and wide > bound:
        return separated or "unresolved"
    if gain > wide:
        return "better"
    if -gain > bound:
        return "worse"
    return "within-bound"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    specs = metric_specs()
    sets = [load(p) for p in argv]
    keys = sorted(set(sets[0]) | set(sets[-1]))
    if len(sets) == 1:
        print(f"{'workload':11s} {'metric':28s} {'n':>3s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for key in keys:
            vals = sets[0][key]
            q1, med, q3 = stats(vals)
            bound = specs.get(key[1], ("", 0.0))[1]
            flag = "" if not bound or spread(vals) < bound / 3 else "  > bound/3"
            print(f"{key[0]:11s} {key[1]:28s} {len(vals):3d} {med:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread(vals):8.3%} {bound:6.2f}{flag}")
        return 0
    print(f"{'workload':11s} {'metric':28s} {'base median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s} {'change':>8s}  verdict")
    for key in keys:
        base, new = sets[0].get(key), sets[1].get(key)
        if not base or not new:
            print(f"{key[0]:11s} {key[1]:28s} missing in one set")
            continue
        better, bound = specs.get(key[1], ("lower", 0.0))
        qb, qn = stats(base), stats(new)
        change = (qn[1] - qb[1]) / abs(qb[1]) if qb[1] else 0.0
        print(f"{key[0]:11s} {key[1]:28s} "
              f"{qb[1]:12.5g} [{qb[0]:10.5g}, {qb[2]:10.5g}] "
              f"{qn[1]:12.5g} [{qn[0]:10.5g}, {qn[2]:10.5g}] {change:+8.2%}  "
              f"{verdict(base, new, better, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
