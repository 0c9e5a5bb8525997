"""Fresh-process measurement: run the CLI operations, time them, check them.

Every operation is a fresh `ellipcf` process, issued one at a time from this
process (a closed loop with one client); its wall time, CPU time and peak RSS
come from `os.wait4`.  Outputs are checked afterwards, untimed.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"

# Every run must end well inside three minutes, set-up and checks included.
RUN_DEADLINE_S = 150.0
OP_TIMEOUT_S = 60.0

EXIT_OK, EXIT_NUMERIC = 0, 3


@dataclass
class OpResult:
    op: object
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    digest: str = ""
    err: str = ""  # end of standard error


def run_cli(argv: list[str], stderr_path: Path, timeout: float) -> tuple[float, float, float, int]:
    """Run one fresh `ellipcf` process: (wall s, cpu s, peak RSS MB, exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ellipcf.cli", *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten values beyond it: (value, percentile)."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return float("nan"), float("nan")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Run:
    """State of one benchmark invocation: inputs, outputs and the deadline."""

    def __init__(self):
        self.started = time.perf_counter()
        self.dir = SCRATCH / f"run-{os.getpid()}"
        self.inputs = self.dir / "inputs"
        self.outputs = self.dir / "outputs"
        self.problems: list[str] = []

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def out_path(self, op, tag: str) -> Path:
        return self.outputs / f"{op.name}.{tag}.csv"

    def cli(self, op, tag: str, workers: int | None = None) -> OpResult:
        out = self.out_path(op, tag)
        err = self.outputs / f"{op.name}.{tag}.err"
        timeout = min(OP_TIMEOUT_S, max(self.remaining(), 1.0))
        wall, cpu, rss, rc = run_cli(op.argv(self.inputs, out, workers), err, timeout)
        return OpResult(op, wall, cpu, rss, rc, digest(out) if out.exists() else "",
                        err.read_text()[-300:].strip())


def judge(run: Run, result: OpResult, path: Path, referee, rng) -> str:
    """Outcome of one operation: 'ok', 'open' (known defect, exit 3) or 'failed'."""
    op = result.op
    if op.defect and result.rc == EXIT_NUMERIC:
        return "open"
    if result.rc != EXIT_OK:
        run.problems.append(f"{op.name}: exit {result.rc}: {result.err}")
        return "failed"
    problems = checks.check_output(op, path, referee, rng)
    run.problems.extend(problems)
    return "failed" if problems else "ok"


def measure(args, workload) -> dict:
    """Fresh-process run: set-up, timed passes, then untimed checks."""
    run = Run()
    workloads.write_inputs(workload, run.inputs)
    run.outputs.mkdir(parents=True)
    warm = workload.setup_ops[0]
    if run.cli(warm, "warm").rc != EXIT_OK:  # also compiles the bytecode once
        raise SystemExit("error: the ellipcf program does not start")

    setup = []
    for op in workload.setup_ops:
        res = run.cli(op, "setup")
        if res.rc != EXIT_OK:
            run.problems.append(f"{op.name}: set-up exit {res.rc}: {res.err}")
        setup.append(res)

    results: list[OpResult] = []
    first: dict = {}
    todo = [(p, op) for p in range(workloads.passes(workload.name, args.seconds))
            for op in workload.ops]
    for p, op in todo:
        if run.remaining() < 30.0:
            run.problems.append("deadline: the run did not finish its passes")
            break
        res = run.cli(op, f"p{p}")
        results.append(res)
        if p == 0:
            first[op.name] = res
            continue
        if res.digest != first[op.name].digest or res.rc != first[op.name].rc:
            run.problems.append(f"{op.name}: pass {p} output differs from pass 0")
        run.out_path(op, f"p{p}").unlink(missing_ok=True)

    referee = checks.Referee(run.inputs, workload.specs)
    rng = workloads.rng(args.seed, 9)
    outcome = {name: judge(run, res, run.out_path(res.op, "p0"), referee, rng)
               for name, res in first.items()}

    # byte identity across worker counts (untimed), on operations picked by the seed
    rerun = []
    for command, count in (("compare", 2), ("sample", 1)):
        candidates = [op for op in workload.ops if op.command == command]
        rerun += [candidates[(args.seed + i) % len(candidates)]
                  for i in range(min(count, len(candidates)))]
    for op in rerun:
        res = run.cli(op, "w1", workers=1)
        if res.digest != first[op.name].digest:
            run.problems.append(f"{op.name}: output differs between --workers 1 and 2")
            outcome[op.name] = "failed"

    return summarize(setup, results, outcome, run.problems)


def summarize(setup, results, outcome, problems) -> dict:
    def wall(rs):
        return sum(r.wall for r in rs)

    grid = [r for r in results if r.op.command != "sample"]
    sample = [r for r in results if r.op.command == "sample"]
    attempted = len(results)
    failed = sum(outcome[r.op.name] == "failed" for r in results)
    still_open = sum(outcome[r.op.name] == "open" for r in results)
    points = sum(r.op.points for r in grid if outcome[r.op.name] == "ok")
    walls = [r.wall for r in results]
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": (statistics.median(r.wall for r in setup), "s",
                    f"median of {len(setup)} fresh processes"),
        "wall_s": (wall(results), "s", f"{attempted} operations"),
        "points_per_s": (points / wall(grid), "1/s", f"{points} points"),
        "op_s_p50": (statistics.median(walls), "s", f"of {attempted} operations"),
        "op_s_tail": (tail_s, "s", f"p{tail_pct:.0f} of {attempted} operations, 10 beyond"),
        "cpu_s": (sum(r.cpu for r in results), "s", "user + system, child rusage"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB", "max over operations"),
        "fail_frac": ((failed + still_open) / attempted, "ratio",
                      f"{still_open} known-defect operations exit 3, {failed} other failures"),
    }
    if sample:
        rows = sum(r.op.count for r in sample if outcome[r.op.name] == "ok")
        metrics["rows_per_s"] = (rows / wall(sample), "1/s", f"{rows} rows")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": not problems and failed == 0, "problems": problems}
