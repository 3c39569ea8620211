"""Generate the case pools and reference outputs in ``reference/``.

    python3 bench/make_reference.py [workload ...]

Draws each workload's pool from a fixed seed, runs every case once at
the current commit, and stores its inputs with a fingerprint of its
outputs.  No draw is left out for its behaviour; each is filed under
the stratum its behaviour puts it in:

* a draw on which the program raises a named error is stored with that
  error as its output, under ``<stratum>_error``, and must go on
  raising it;
* a hot_grid draw is filed under ``<stratum>_<nodes>``, the deepest
  Gauss-Hermite level its ladder reached, so that every round of the
  workload does the same quadrature work whatever the seed.

A round draws from every stratum its workload names (workloads.py); a
draw that would fall outside them, or into a full pool, is counted in
the file's ``surplus`` field.  A CLI command that exits non-zero stops
the build.

Run it only when the benchmark is redefined: a change that claims a
speed-up must not regenerate the references it is checked against.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402

sys.path.insert(0, str(wl.SRC))
from chiralight import presets  # noqa: E402
from chiralight.errors import ChiralightError  # noqa: E402

import fingerprint as fpm  # noqa: E402
from tracing import Tracer  # noqa: E402

POOL_SEED = 14014687
SIZES = {"hot_grid": {"narrow": 8, "narrow_ctr": 8, "fig6": 8, "broad": 16},
         "hot_roots": {"calibrate": 8, "crossover": 12, "delay": 8},
         "cold_scan": {"draw": 48},
         "cli_readme": {k: 6 for k in ("spectrum", "delay", "crossover", "pulse",
                                       "pulse_vacuum", "calibrate", "preset_dump")}}


def resolved(name: str, **medium) -> dict:
    sc = presets.get(name)
    cfg = sc.config()
    med = asdict(cfg.medium)
    med.update(medium)
    return {"system": asdict(cfg.system), "medium": med}


def signs(rng) -> dict:
    return {f"alpha_{i}": float(rng.choice([-1.0, 1.0])) for i in (1, 2, 3)}


def grid(rng, center, half, n) -> list:
    c = round(float(rng.uniform(-center, center)), 3)
    h = round(float(rng.uniform(*half)), 3)
    return [c - h, c + h, n]


# ------------------------------------------------------------ generators

def gen_hot_grid(stratum, rng) -> dict:
    if stratum in ("narrow", "narrow_ctr"):
        inp = resolved("fig8ab")
        alphas = signs(rng)
        if stratum == "narrow_ctr":
            alphas.update(alpha_2=-1.0, alpha_3=1.0)
        inp["system"].update(alphas, omega_3=round(float(rng.uniform(0.65, 0.75)), 3))
        inp["grid"] = grid(rng, 0.5, (1.5, 2.5), 7 if stratum == "narrow" else 3)
    elif stratum == "fig6":
        inp = resolved("fig6", v_doppler=0.3)
        inp["system"].update(signs(rng))
        inp["grid"] = grid(rng, 0.5, (1.5, 2.5), 7)
    else:
        inp = resolved(str(rng.choice(["fig4a", "fig7b"])))
        inp["system"].update(signs(rng))
        inp["grid"] = grid(rng, 2.0, (6.0, 10.0), 41)
    return {"input": inp, "tol": wl.HOT_TOL}


def gen_hot_roots(stratum, rng) -> dict:
    if stratum == "calibrate":
        target = 1618.15 * (1 + rng.uniform(-0.03, 0.03))
        lo, hi = 10 ** rng.uniform(-8, -2), 10 ** rng.uniform(2, 4)
        argv = ["calibrate", "--preset", "fig8ab", "--quantity", "n_0",
                "--mode", "hot", "--target", f"{target:.6g}",
                "--bracket", f"{lo:.3g}:{hi:.3g}"]
        return {"input": {"argv": argv}, "tol": wl.HOT_TOL}
    if stratum == "crossover":
        inp = resolved("fig7e", v_doppler=round(float(rng.uniform(1.4, 1.6)), 3))
        xtol = float(rng.choice([1e-3, 1e-4]))
        inp.update(lo=round(float(rng.uniform(1.0, 1.5)), 3),
                   hi=round(float(rng.uniform(4.0, 5.0)), 3), xtol=xtol)
        return {"input": inp, "tol": wl.HOT_TOL, "atol": {"omega3_star": xtol}}
    rows = [["fig7", round(float(o3), 3)] for o3 in np.sort(rng.uniform(0.7, 5.0, 3))]
    rows.append(["fig8ab", round(float(rng.uniform(0.6, 0.8)), 3)])
    inp = {"configs": {"fig7": resolved("fig7e"), "fig8ab": resolved("fig8ab")},
           "rows": rows}
    tol = {"*": wl.HOT_TOL}
    tol.update({f"{2 * i}.cold.{k}": wl.COLD_TOL for i in range(len(rows))
                for k in ("n_g", "v_g", "tau_ns")})
    return {"input": inp, "tol": tol}


def log_uniform(rng, lo, hi) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def gen_cold_scan(stratum, rng) -> dict:
    system = {f"omega_{i}": log_uniform(rng, 0.05, 5.0) for i in (1, 2, 3)}
    system.update({f"gamma_{i}": log_uniform(rng, 0.1, 3.0) for i in (1, 2, 3, 4)})
    system.update({k: float(rng.uniform(-1, 1)) for k in ("delta_b", "delta_1", "delta_2")})
    system.update(phi=float(rng.uniform(0, 2 * math.pi)), **signs(rng))
    medium = {"density_coupling": log_uniform(rng, 0.1, 3.0),
              "length_L": log_uniform(rng, 1e-3, 1e-2)}
    pulse = {"tau_0": log_uniform(rng, 3e-9, 1e-8), "delta": float(rng.uniform(-3e9, 3e9))}
    inp = {"system": system, "medium": medium, "grid": [-10.0, 10.0, 2001],
           "pulse": pulse}
    return {"input": inp, "tol": wl.COLD_TOL}


def gen_cli_readme(stratum, rng) -> dict:
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    tol, atol = wl.COLD_TOL, None
    if stratum == "spectrum":
        argv = ["spectrum", "--preset", "fig2a", "--grid",
                f"{u(-11, -9):.2f}:{u(9, 11):.2f}:2001"]
    elif stratum == "delay":
        o3 = ",".join(f"{x:.2f}" for x in np.sort(rng.uniform(0.7, 5.0, 4)))
        argv = ["delay", "--preset", "fig7", "--omega3", o3, "--mode", "both"]
        tol = wl.HOT_TOL
    elif stratum == "crossover":
        argv = ["crossover", "--preset", "fig7", "--omega3-range",
                f"{u(1.0, 1.5):.2f}:{u(4.0, 5.0):.2f}"]
        tol, atol = wl.HOT_TOL, {"omega3_star": 1e-3}
    elif stratum in ("pulse", "pulse_vacuum"):
        argv = ["pulse", "--preset", "fig8ab", "--tau0", f"{u(4.0, 7.0):.2f}"]
        if stratum == "pulse_vacuum":
            argv.append("--vacuum")
    elif stratum == "calibrate":
        argv = ["calibrate", "--preset", "fig8ab",
                "--target", f"{1415.65 * (1 + u(-0.03, 0.03)):.2f}"]
    else:
        argv = ["preset-dump", str(rng.choice(["fig2", "fig4", "fig7", "fig8",
                                               "fig2a", "fig6", "fig8cd"]))]
    case = {"input": {"argv": argv}, "tol": tol}
    if atol:
        case["atol"] = atol
    return case


GENERATORS = {"hot_grid": gen_hot_grid, "hot_roots": gen_hot_roots,
              "cold_scan": gen_cold_scan, "cli_readme": gen_cli_readme}


# ------------------------------------------------------------ pool build

def evaluate(name, stratum, case, tracer) -> str:
    """Run a fresh case, store its fingerprint; returns its pool stratum."""
    case["kind"] = "cli" if "argv" in case["input"] else stratum
    if name == "cli_readme":
        code, stdout = wl.run_subprocess(case["input"]["argv"], wl.subprocess_env())
        if code != 0:
            raise SystemExit(f"{case['input']['argv']}: exit {code}")
        outputs = fpm.cli_outputs(stdout)
        outputs["exit"] = str(code)
        work = 1
    else:
        tracer.spans.clear()
        try:
            outputs, work = wl.run_inprocess(wl.Prepared(case), {"rows": 0, "bytes": 0})
        except ChiralightError as exc:
            outputs, work, stratum = {"error": type(exc).__name__}, 0, stratum + "_error"
        else:
            m = tracer.layer_metrics()
            if m["doppler.evals"]:
                case["evals"] = m["doppler.evals"]
            if name == "hot_grid":
                stratum += f"_{m['doppler.max_nodes']}"
    case["fp"] = fpm.fingerprint(outputs)
    case["work"] = work
    return stratum


def build(name: str, tracer) -> dict:
    """Draw cases until a generator's own stratum holds `size` of them, or
    3 x size draws (hot_grid, whose draws spread over ladder depths)."""
    rng = np.random.default_rng([POOL_SEED, sorted(wl.WORKLOADS).index(name)])
    strata = {s: [] for s, _ in wl.WORKLOADS[name].round}
    surplus = Counter()
    for gen, size in SIZES[name].items():
        for _ in range(3 * size):
            if len(strata.get(gen, ())) >= size:
                break
            case = GENERATORS[name](gen, rng)
            stratum = evaluate(name, gen, case, tracer)
            if stratum in strata and len(strata[stratum]) < size:
                case["id"] = f"{stratum}-{len(strata[stratum]):02d}"
                strata[stratum].append(case)
            else:
                surplus[stratum] += 1
        print(f"{name}/{gen}: pools {({s: len(v) for s, v in strata.items()})}",
              file=sys.stderr)
    empty = [s for s, v in strata.items() if not v]
    if empty:
        raise SystemExit(f"{name}: no draws for {empty}")
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=str(wl.ROOT)).stdout.strip() or "unknown"
    return {"workload": name, "source_commit": commit, "pool_seed": POOL_SEED,
            "surplus": dict(surplus), "strata": strata}


def main(argv):
    names = argv or sorted(wl.WORKLOADS)
    wl.REF_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    tracer.install()
    for name in names:
        doc = build(name, tracer)
        with open(wl.REF_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
    tracer.uninstall()


if __name__ == "__main__":
    main(sys.argv[1:])
