"""One workload in one fresh single-threaded process.

Run by ``run.py``; prints a single JSON report on stdout.  The measured phase
is a closed loop: each operation starts when the previous one has ended, and
whole rounds of the workload's operations repeat until ``--seconds`` have
passed (the last round runs to its end).  Every round's outputs are checked after the round, outside the
timed intervals.

With ``--trace 1`` the first round runs untraced, the span recorder is then
installed, and the remaining rounds give the per-layer metrics; the tracing
overhead is the traced round's wall time minus the untraced one's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import pitman_lab

    origin = Path(pitman_lab.__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise ImportError(f"pitman_lab imported from {origin}, not from this checkout")


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def machine() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_round(ops) -> tuple[float, float, list]:
    """Run every operation once; return (wall s, cpu s, outputs)."""
    wall = cpu = 0.0
    outputs = []
    for op in ops:
        c0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception:  # an operation that raises counts as failed
            out, error = None, traceback.format_exc(limit=3)
        t1, c1 = time.perf_counter(), _cpu_seconds()
        wall += t1 - t0
        cpu += c1 - c0
        outputs.append((out, error, t1 - t0))
    return wall, cpu, outputs


def check_round(ops, outputs, tally: dict):
    from workloads import CheckFailed

    for op, (out, error, seconds) in zip(ops, outputs):
        if error is None:
            try:
                detail, ok = op.check(out), True
            except CheckFailed as exc:
                detail, ok = str(exc), False
        else:
            detail, ok = error.strip().splitlines()[-1], False
        entry = tally.setdefault(op.name, {"seconds": [], "failed": 0})
        entry["seconds"].append(round(seconds, 6))
        entry["detail"] = detail
        tally["attempted"] += 1
        if not ok:
            entry["failed"] += 1
            tally["failed"] += 1
            if op.known_fault:
                entry["known_fault"] = op.known_fault
            else:
                tally["correct"] = False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the program, build the inputs and exit")
    args = ap.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"worker: cannot import pitman_lab: {exc}", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0

    tally = {"attempted": 0, "failed": 0, "correct": True}
    walls, cpus = [], []
    recorder = None
    traced = []  # (wall s, self seconds by span, counters, spans) per traced round
    started = time.perf_counter()
    while True:
        if recorder is not None:
            mark = recorder.mark()
        wall, cpu, outputs = run_round(ops)
        if recorder is not None:
            traced.append((wall, *recorder.summary(mark), len(recorder.name) - mark[0]))
        else:
            walls.append(wall)
            cpus.append(cpu)
        check_round(ops, outputs, tally)
        del outputs
        if args.trace and recorder is None:
            recorder = spans.SpanRecorder()
            spans.install(recorder)
            continue
        if time.perf_counter() - started >= args.seconds:
            break

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine(),
        "rounds": len(walls) + len(traced),
        "ops": {k: v for k, v in tally.items() if isinstance(v, dict)},
        "correct": tally["correct"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
    }
    if recorder is None:
        report["metrics"] = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
        report["round_wall_s"] = walls
    else:
        recorder.uninstall()
        metrics = {}
        for _, self_s, counts, _ in traced:
            for name, (value, unit) in spans.layer_metrics(self_s, counts).items():
                metrics.setdefault(name, ([], unit))[0].append(value)
        # counts repeat exactly from round to round; times take the median
        report["metrics"] = {
            name: {"value": statistics.median(values) if unit == "s" else values[0], "unit": unit}
            for name, (values, unit) in metrics.items()
        }
        report["metrics"]["trace.overhead_s"] = {
            "value": statistics.median(t[0] for t in traced) - walls[0], "unit": "s"}
        report["metrics"]["trace.spans"] = {"value": traced[0][3], "unit": "count"}
        report["counts_repeat"] = all(t[2] == traced[0][2] for t in traced)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        recorder.dump(span_file)
        report["span_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
