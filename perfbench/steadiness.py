"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...] [--first-seed 100]

Runs ``run.py`` once per seed for each workload, one run at a time, and
prints a Markdown table with each metric's median, its quartile spread
(Q3 - Q1 over the median, by ``statistics.quantiles(n=4)``) and the
metric's bound from ``BENCHMARK.json``, and the value of every run.  A
spread of a third of the bound or more is flagged (``setup_s`` excepted:
its spread is not bounded, only its median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    print("| workload | metric | median | spread | bound | values by seed |")
    print("|---|---|---|---|---|---|")
    for workload in names:
        results = [
            run_once(workload, args.first_seed + i, spec["run_seconds"])
            for i in range(args.runs)
        ]
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            spread = quartile_spread(values)
            flag = "" if metric == "setup_s" or spread < bound / 3 else " **!**"
            listed = " ".join(f"{v:.4g}" for v in values)
            print(f"| {workload} | {metric} | {statistics.median(values):.4g} "
                  f"| {spread:.4f}{flag} | {bound} | {listed} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
