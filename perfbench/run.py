"""pitman-lab benchmark: one command, one workload per fresh process.

    python3 perfbench/run.py --workload exact-tables --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The command times the start-up of fresh
interpreters (``setup_s``), then runs the workload in its own
single-threaded worker process (see ``worker.py``) and prints, as the last
line of stdout, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it is the full report: the
machine, every operation's timings and check details, and the known faults.
``--workload all`` runs every workload in turn.

Exit codes: 0 every check passed, 1 a check failed, 2 the program or the
worker could not run (nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("exact-tables", "level-laws", "monte-carlo")

#: fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 7
#: wall-clock limit for one worker, inside the 180 s a run may take
WORKER_TIMEOUT_S = 150

#: one thread everywhere, so work moved onto threads shows up in cpu_s
#: rather than hiding in wall_s
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def _worker_argv(args, workload, *extra):
    return [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
            *extra]


def measure_setup(args, workload, env) -> list:
    """Seconds from launching a fresh interpreter to having pitman_lab
    imported and the workload's inputs built, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(_worker_argv(args, workload, "--setup-only"), env=env,
                              cwd=ROOT, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise WorkerError(f"setup of {workload} exited with {proc.returncode}")
    return times


def run_workload(args, workload) -> dict:
    env = {**os.environ, **SINGLE_THREAD}
    setup = measure_setup(args, workload, env)
    proc = subprocess.run(
        _worker_argv(args, workload, "--seconds", str(args.seconds), "--trace", str(args.trace)),
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker for {workload} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_runs_s"] = setup
    if not args.trace:
        report["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20, help="length of the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pitman_lab" / "__init__.py").is_file():
        print(f"run.py: no pitman_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(args, name) for name in names]
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    for report in reports:
        print(json.dumps(report))
    if len(reports) == 1:
        final = {k: reports[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": {f"{r['workload']}/{name}": m for r in reports
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
