"""Benchmark of the `ellipcf` command-line program.

Run from the repository root:

    python3 bench/run.py --workload hankel_grid --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): `hankel_grid` (eval on the quadrature route),
`closed_grid` (eval on the closed-form route, large grids) and `mc_sample`
(compare closed,mc and sample).  With `--trace 0` every operation is a fresh
CLI process and the end-to-end metrics are printed (harness.py).  With
`--trace 1` the same operations run in this process with wrappers around the
public functions of each module, and the per-layer metrics are printed
(tracing.py).  Either way every output is checked (checks.py).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# End-to-end metrics in the JSON line.  The others are printed above it only:
# fail_frac is 0 and rows_per_s absent on some workloads, and op_s_p50 and
# op_s_tail are order statistics of a few operation classes with distinct
# durations, which jump between classes from run to run.
END_TO_END = ("setup_s", "wall_s", "points_per_s", "cpu_s", "peak_rss_mb")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ellipcf" / "cli.py").is_file():
        print(f"error: the ellipcf sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.build(args.workload, args.seed)
    try:
        if args.trace:
            import tracing

            report = tracing.measure(args, workload)
            names = tracing.JSON_METRICS
        else:
            report = harness.measure(args, workload)
            names = END_TO_END
    finally:
        shutil.rmtree(harness.SCRATCH / f"run-{os.getpid()}", ignore_errors=True)
        if harness.SCRATCH.is_dir() and not any(harness.SCRATCH.iterdir()):
            harness.SCRATCH.rmdir()

    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit, note) in report["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} {note}")
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name][0], "unit": report["metrics"][name][1]}
                    for name in names},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
