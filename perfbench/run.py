"""NChecker end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 32 --trace 0

``--trace 0`` measures the workload untraced and reports its end-to-end
metrics; ``--trace 1`` replays the same inputs with spans around each
layer's public calls and reports per-layer metrics.  Human-readable rows
go first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output passed the ledger oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no NChecker sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import traced, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # A terminated run still stops its daemon and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The daemon shuts down on SIGINT.  A shell starts background jobs
    # with SIGINT ignored, and children inherit that; a handled SIGINT
    # here is reset to the default in every child instead.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        ctx = workloads.Context(ROOT, work, args.seed, args.seconds)
        ctx.compile_sources()
        if args.trace:
            outcome = traced.run(ctx, args.workload)
        else:
            outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, value, unit in outcome.report:
        print(f"{args.workload:14} {name:34} {value:14.4f} {unit}")
    for error in outcome.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    # A metric with no valid sample (every operation failed) cannot be
    # reported as a number; the run is then not correct.
    finite = all(math.isfinite(value) for value, _ in outcome.metrics.values())
    result = {
        "correct": outcome.correct and finite,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
