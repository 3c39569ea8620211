"""The four benchmark workloads: schedules, operations and output checks.

Every workload is a closed loop with one client: the next operation
starts only after the previous one returned.  A run is a sequence of
whole rounds; every round of a workload has the same composition (so
many cases of each stratum, in seeded order), and each stratum deals
its cases from a shuffled deck, so runs with different seeds do nearly
the same work in the same mix.  The cases come from a pool stored with
the benchmark in ``reference/<workload>.json`` together with the
program's outputs at the commit that defined the benchmark
(regenerate with ``make_reference.py``); the seed picks the cases and
their order, and the program only ever receives the generated configs,
grids and argument lists.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fingerprint as fpm

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REF_DIR = BENCH_DIR / "reference"

# Tolerances of acceptance criterion 1 (cold, coherence routes) and
# criterion 2 (hot, dual quadrature).
COLD_TOL = 1.0e-10
HOT_TOL = 1.0e-8


@dataclass(frozen=True)
class Workload:
    """A named closed-loop workload.

    op: what one unit of ``ops_per_s`` counts on this workload;
    rate_alias: the usual name of that rate (points_per_s, ...);
    round: (stratum, cases per round) pairs;
    tail_pct: the fixed percentile reported as ``op_tail_ms``, the
    highest one with at least ten samples beyond it at this commit.
    """

    name: str
    op: str
    rate_alias: str
    round: tuple
    tail_pct: float
    in_process: bool = True


WORKLOADS = {
    "hot_grid": Workload(
        "hot_grid", "output detuning point (response + N_g, hot)",
        "points_per_s",
        (("narrow_2048", 1), ("narrow_4096", 1), ("narrow_8192", 1),
         ("narrow_ctr_8192", 1), ("fig6_1024", 1), ("fig6_2048", 1),
         ("broad_128", 6), ("broad_256", 1)), 85.0),
    "hot_roots": Workload(
        "hot_roots", "completed root solve (one calibrate or one crossover)",
        "roots_per_s",
        (("calibrate", 2), ("crossover", 6), ("delay", 2)), 90.0),
    "cold_scan": Workload(
        "cold_scan", "output detuning point (response + N_g, cold)",
        "points_per_s", (("draw", 8), ("draw_error", 1)), 90.0),
    "cli_readme": Workload(
        "cli_readme", "completed CLI command", "cmds_per_s",
        (("spectrum", 1), ("delay", 1), ("crossover", 1), ("pulse", 1),
         ("pulse_vacuum", 1), ("calibrate", 1), ("preset_dump", 1)), 50.0,
        in_process=False),
}


def load_reference(name: str) -> dict:
    path = REF_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rounds(workload: Workload, strata: dict, seed: int):
    """Endless seeded sequence of rounds, each a list of cases.

    Each stratum deals its cases from a shuffled deck and reshuffles
    only when the deck is empty, so a run covers its pools as evenly
    as its length allows and two seeds differ in order, not in mix.
    """
    rng = np.random.default_rng([seed % 2**63, sorted(WORKLOADS).index(workload.name)])
    decks = {stratum: [] for stratum, _ in workload.round}
    while True:
        batch = []
        for stratum, count in workload.round:
            pool, deck = strata[stratum], decks[stratum]
            for _ in range(count):
                if not deck:
                    deck.extend(int(i) for i in rng.permutation(len(pool)))
                batch.append(pool[deck.pop()])
        yield [batch[int(i)] for i in rng.permutation(len(batch))]


# ------------------------------------------------------------- operations

def _config(inp: dict):
    from chiralight.params import MediumParams, SystemParams, validate
    return validate(SystemParams(**inp["system"]), MediumParams(**inp["medium"]))


def _grid(spec) -> np.ndarray:
    lo, hi, n = spec
    return np.linspace(lo, hi, int(n))


class Prepared:
    """A case with its configs built ahead of the timed call."""

    def __init__(self, case: dict):
        self.case = case
        self.kind = case["kind"]
        inp = case["input"]
        if "system" in inp:
            self.cfg = _config(inp)
        if "grid" in inp:
            self.grid = _grid(inp["grid"])
        if self.kind == "delay":
            from chiralight.params import with_overrides
            self.scenarios = []
            for label, o3 in inp["rows"]:
                cfg = with_overrides(_config(inp["configs"][label]),
                                     system={"omega_3": float(o3)})
                for mode in ("cold", "hot"):
                    self.scenarios.append((f"{label}:omega3={o3:g}", cfg, mode))
        if "pulse" in inp:
            from chiralight.pulse import PulseSpec
            self.ps = PulseSpec(**inp["pulse"])


def _curve_outputs(curve, resp) -> dict:
    return {"N_g": curve.N_g, "n_complex": curve.n_complex,
            "chi_e": resp.chi_e, "chi_m": resp.chi_m,
            "xi_eh": resp.xi_eh, "xi_he": resp.xi_he}


def run_inprocess(p: Prepared, io_counts: dict) -> tuple:
    """Execute one case in this process; returns (outputs, work units)."""
    from chiralight import cli, optics
    from chiralight import pulse as pulse_mod
    inp = p.case["input"]
    kind = p.kind
    if kind in ("narrow", "narrow_ctr", "fig6", "broad"):  # hot_grid families
        curve, resp = optics.group_index_curve(p.cfg, p.grid, mode="hot",
                                               return_response=True)
        return _curve_outputs(curve, resp), p.grid.size
    if kind == "draw":
        curve, resp = optics.group_index_curve(p.cfg, p.grid, mode="cold",
                                               return_response=True)
        k_rel = pulse_mod.medium_wavenumber(p.cfg, p.ps, mode="cold")
        out = pulse_mod.propagate_numeric(p.ps, k_rel, p.cfg.medium.length_L)
        trace_in = pulse_mod.input_envelope(p.ps, out.grid)
        metrics = pulse_mod.pulse_metrics(trace_in, out)
        outputs = _curve_outputs(curve, resp)
        outputs.update(envelope=out.samples, t=out.grid, **metrics)
        return outputs, p.grid.size
    if kind == "crossover":
        star = optics.superluminal_crossover(p.cfg, inp["lo"], inp["hi"],
                                             xtol=inp["xtol"])
        return {"omega3_star": star}, 1
    if kind == "delay":
        outputs = {}
        for i, row in enumerate(optics.delay_table(p.scenarios)):
            for key in ("n_g", "v_g", "tau_ns"):
                outputs[f"{i}.{row['mode']}.{key}"] = row[key]
            outputs[f"{i}.error"] = str(row["error"])
        return outputs, 0
    # CLI commands (calibrate in hot_roots, every cli_readme case)
    code, stdout = cli_inprocess(cli, inp["argv"])
    io_counts["rows"] += fpm.cli_row_count(stdout)
    io_counts["bytes"] += len(stdout.encode())
    outputs = fpm.cli_outputs(stdout)
    outputs["exit"] = str(code)
    return outputs, 1


def cli_inprocess(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_subprocess(argv, env) -> tuple:
    """One CLI command in a fresh interpreter: (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-m", "chiralight.cli", *argv],
                          capture_output=True, text=True, env=env,
                          cwd=str(ROOT), timeout=120)
    return proc.returncode, proc.stdout


def check(case: dict, outputs: dict) -> list:
    """Mismatches between this run's outputs and the stored reference."""
    return fpm.compare(fpm.fingerprint(outputs), case["fp"],
                       case["tol"], case.get("atol"))
