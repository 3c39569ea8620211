"""chiralight benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics with
tracing off, its times scaled to a reference host speed by the probe
in ``hostspeed.py``; with ``--trace 1`` it runs the same rounds
untraced and then traced, and reports the per-layer metrics from the
spans.  Every operation's outputs are checked against
``reference/<workload>.json``.

Human-readable lines (prefixed ``#``) go first; the last line of
stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}.  Traced spans are written to
``bench/out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
NPROC = os.cpu_count() or 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 5
SETUP_CODE = "import chiralight.cli as c; c.build_parser()"


def cap_threads():
    """Cap native thread pools at nproc before numpy is imported."""
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, NPROC))
        except ValueError:
            n = NPROC
        os.environ[var] = str(max(1, min(n, NPROC)))


def metadata() -> dict:
    import numpy
    import scipy
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, cwd=str(ROOT), timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "fft": "numpy.fft (pocketfft, single-threaded)",
        "git_commit": commit or "unknown",
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "clients": 1,
        "loop": "closed",
    }


def percentile(values, pct) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Runner:
    """Closed-loop execution of a workload's rounds with output checks."""

    def __init__(self, wl, workload, strata, seed, subprocess_cli):
        self.wl = wl
        self.workload = workload
        self.subprocess_cli = subprocess_cli
        self.env = wl.subprocess_env()
        self.prepared = {}
        self.gen = wl.rounds(workload, strata, seed)
        self.latencies = []
        self.spans = []      # (start, end) of every operation
        self.speed = None    # hostspeed.SpeedLog when timings are scaled
        self.units = 0
        self.failures = Counter()
        self.mismatches = []
        self.attempted = 0
        self.failed = 0      # outcome differs from the reference
        self.failing = 0     # named error, non-zero exit or mismatch
        self.io = {"rows": 0, "bytes": 0}

    def prepare(self, case):
        p = self.prepared.get(case["id"])
        if p is None:
            p = self.prepared[case["id"]] = self.wl.Prepared(case)
        return p

    def execute(self, case):
        """Run one case; returns (outputs or None, work units, seconds).

        A named error is an output, {"error": name}: some pooled cases
        raise one at the defining commit and must go on raising it.
        """
        p = self.prepare(case)
        t0 = time.perf_counter()
        if self.subprocess_cli:
            code, stdout = self.wl.run_subprocess(case["input"]["argv"], self.env)
            dt = time.perf_counter() - t0
            self.io["rows"] += self.wl.fpm.cli_row_count(stdout)
            self.io["bytes"] += len(stdout.encode())
            outputs = self.wl.fpm.cli_outputs(stdout) if code == 0 else None
            if outputs is not None:
                outputs["exit"] = str(code)
            else:
                self.failures[f"exit {code}"] += 1
            return outputs, 1, dt
        from chiralight.errors import ChiralightError
        try:
            outputs, work = self.wl.run_inprocess(p, self.io)
        except ChiralightError as exc:
            self.failures[type(exc).__name__] += 1
            return {"error": type(exc).__name__}, 0, time.perf_counter() - t0
        return outputs, work, time.perf_counter() - t0

    def run_case(self, case, tracer=None):
        span = None
        if tracer is not None:
            tracer.op_id = self.attempted
            span = tracer.open(("bench", "op:" + case["kind"]))
        outputs, units, dt = self.execute(case)
        t_end = time.perf_counter()
        self.spans.append((t_end - dt, t_end))
        if self.speed is not None:
            self.speed.mark()
        self.attempted += 1
        ok = outputs is not None
        if ok:
            bad = self.wl.check(case, outputs)
            if bad:
                ok = False
                self.failures["mismatch"] += 1
                self.mismatches.append(f"{case['id']}: {bad[0]}")
        if span is not None:
            tracer.close(span)
        self.failed += not ok
        self.failing += not ok or "error" in outputs
        self.latencies.append(dt)
        self.units += units if ok else 0

    def scaled(self) -> list:
        """Operation times scaled to the reference host speed."""
        return [dt * self.speed.scale(t0, t1)
                for dt, (t0, t1) in zip(self.latencies, self.spans)]

    def run_for(self, seconds) -> list:
        """Run whole rounds until `seconds` have passed; returns the cases run.

        The deadline is checked only between rounds, so every metric
        covers the same mix of strata whatever the seed.
        """
        done = []
        t_end = time.perf_counter() + seconds
        for batch in self.gen:
            for case in batch:
                self.run_case(case)
            done.extend(batch)
            if time.perf_counter() >= t_end:
                return done

    def warm_up(self, strata):
        """One untimed case of each kind fills caches and lazy imports:
        the one with the least Doppler work among those that succeed."""
        if self.subprocess_cli:
            return
        first = {}
        for case in sorted((c for pool in strata.values() for c in pool
                            if "error" not in c["fp"]), key=lambda c: c.get("evals", 0)):
            first.setdefault(case["kind"], case)
        for case in first.values():
            self.wl.run_inprocess(self.prepare(case), {"rows": 0, "bytes": 0})


def pin_one_cpu():
    """Keep this process and the ones it starts on one CPU.

    The probe then times the CPU that runs the subprocesses it scales.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_seconds(env, speed) -> tuple:
    """Median time of a fresh interpreter importing the CLI: (scaled, raw).

    Runs after the workload, which has already compiled the bytecode,
    on one CPU, with a probe point before and after every start.
    """
    pin_one_cpu()
    cmd = [sys.executable, "-c", SETUP_CODE]
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        speed.mark(force=True)
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=str(ROOT), check=True, timeout=120)
        t1 = time.perf_counter()
        speed.mark(force=True)
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * speed.scale(t0, t1))
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner, setup_s) -> dict:
    """The gated metrics, from operation times scaled to reference speed."""
    scaled = runner.scaled()
    lat_ms = [x * 1e3 for x in scaled]
    return {
        "ops_per_s": metric(runner.units / math.fsum(scaled), "1/s"),
        "op_mean_ms": metric(statistics.fmean(lat_ms), "ms"),
        "op_tail_ms": metric(percentile(lat_ms, runner.workload.tail_pct), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(tracer, runner, wall_untraced, wall_traced) -> dict:
    m = tracer.layer_metrics()
    m["cli.rows"] = runner.io["rows"]
    m["cli.bytes_out"] = runner.io["bytes"]
    m["trace.wall_s"] = wall_traced
    m["trace.overhead"] = wall_traced / wall_untraced
    layer_sum = sum(v for k, v in m.items()
                    if k.endswith(".self_s") and k.count(".") == 1)
    m["trace.accounted_ratio"] = layer_sum / wall_traced
    return {k: metric(v, UNITS.get(k.split(".", 1)[1], "s")) for k, v in m.items()}


UNITS = {"calls": "count", "points": "count", "ns_per_point": "ns", "evals": "count",
         "evals_per_point": "count", "levels": "count", "max_nodes": "count",
         "useful_ratio": "1", "batch_bytes_peak": "B", "point_calls": "count",
         "samples": "count", "rows": "count", "bytes_out": "B", "spans": "count",
         "overhead": "1", "accounted_ratio": "1"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "chiralight" / "__init__.py").is_file():
        print(f"error: no chiralight source tree at {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(sorted(wl.WORKLOADS))}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    strata = wl.load_reference(args.workload)["strata"]
    meta = metadata()

    env = wl.subprocess_env()
    subprocess_cli = not workload.in_process and not args.trace
    runner = Runner(wl, workload, strata, args.seed, subprocess_cli)
    if subprocess_cli:  # compile bytecode before anything is timed
        pin_one_cpu()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                       cwd=str(ROOT), check=True, timeout=120)
    runner.warm_up(strata)

    t0 = time.perf_counter()
    if args.trace:
        from tracing import Tracer
        done = runner.run_for(args.seconds / 2)
        wall_untraced = time.perf_counter() - t0
        runner.io = {"rows": 0, "bytes": 0}
        tracer = Tracer()
        tracer.install()
        t1 = time.perf_counter()
        root = tracer.open(("bench", "phase"))
        try:
            for case in done:
                runner.run_case(case, tracer)
        finally:
            tracer.close(root)
            tracer.uninstall()
        wall_traced = time.perf_counter() - t1
        metrics = per_layer(tracer, runner, wall_untraced, wall_traced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    else:
        import hostspeed
        runner.speed = hostspeed.SpeedLog()
        runner.run_for(args.seconds)
        runner.speed.mark(force=True)
        setup_s, setup_raw = setup_seconds(env, runner.speed)
        metrics = end_to_end(runner, setup_s)
    wall = time.perf_counter() - t0

    n = len(runner.latencies)
    tail = percentile(runner.latencies, workload.tail_pct)
    beyond = sum(1 for x in runner.latencies if x > tail)
    rounds = n / sum(c for _, c in workload.round)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}

    print(f"# chiralight benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, closed loop, 1 client, "
          f"wall {wall:.3f} s, CLI {'subprocess' if subprocess_cli else 'in-process'}")
    print(f"# meta {json.dumps(meta)}")
    print(f"# op = {workload.op}; ops_per_s is {workload.rate_alias} here")
    print(f"# {n} operations ({rounds:g} rounds); tail = p{workload.tail_pct:g} "
          f"with {beyond} samples beyond it")
    lat = runner.latencies
    if runner.speed is not None:
        speed, lat = runner.speed, runner.scaled()
        print(f"# host speed: probe {speed.mean_probe() * 1e3:.4g} ms mean of "
              f"{len(speed.probes)} points, reference {hostspeed.REF_S * 1e3:.4g} ms; "
              f"unscaled ops_per_s {runner.units / math.fsum(runner.latencies):.6g} 1/s, "
              f"op_mean_ms {statistics.fmean(runner.latencies) * 1e3:.6g} ms, "
              f"setup_s {setup_raw:.6g} s")
    print(f"# op_p50_ms {statistics.median(lat) * 1e3:.6g} ms "
          f"(median of {n}{', scaled' if runner.speed else ''}; reported, not gated)")
    print(f"# fail_ratio {runner.failing / runner.attempted:.6g} = "
          f"{runner.failing}/{runner.attempted} {json.dumps(dict(runner.failures))}; "
          f"{runner.failed} outcomes differ from the reference")
    for m in runner.mismatches[:5]:
        print(f"# mismatch {m}")
    for name, v in metrics.items():
        print(f"# {name:28s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
