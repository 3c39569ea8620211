"""Smoke test of the benchmark runner (about two minutes).

    python3 -m pytest bench/test_smoke.py -q

Runs every workload for one round in both modes and checks the output
contract: the last stdout line is the result object, every end-to-end
(``--trace 0``) or per-layer (``--trace 1``) metric named in
BENCHMARK.json is there with its unit and also printed on a ``#`` line,
the outputs match the references, and the traced self times add up to
the traced wall time.  A copy holding only BENCHMARK.json and the
benchmark directory must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, workload, trace, seconds="0.01"):
    cmd = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    return subprocess.run(cmd + ["--workload", workload, "--seed", "7", "--seconds",
                                 seconds, "--trace", str(trace)],
                          capture_output=True, text=True, cwd=str(cwd), timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert any(line.startswith("# " + m["name"] + " ") and
                   line.rstrip().endswith(" " + m["unit"]) for line in lines), m["name"]
    if trace:
        ratio = result["metrics"]["trace.accounted_ratio"]["value"]
        assert abs(ratio - 1.0) < 0.01
    else:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
