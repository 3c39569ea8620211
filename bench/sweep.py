"""Run every workload over several seeds and collect one result set.

    python3 bench/sweep.py --out set.jsonl [--seeds 1-10] [--trace 0|1]

Runs every workload of BENCHMARK.json at its ``run_seconds``, so two
sets always cover the same rows at the same run length.  Each line of
the output file is {"workload", "seed", "trace", "result", "meta"};
``compare.py`` reads these files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(args.out, "a", encoding="utf-8") as out:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in seed_list(args.seeds):
                cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                                      capture_output=True, text=True, cwd=str(ROOT),
                                      timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                          file=sys.stderr)
                    return 1
                meta = next((json.loads(l[len("# meta "):]) for l in lines
                             if l.startswith("# meta ")), {})
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, "result": result,
                                      "meta": meta}) + "\n")
                out.flush()
                print(f"== {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
                for line in lines[:-1]:
                    if not line.startswith(("# meta ", "# chiralight")):
                        print(line)
                sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
