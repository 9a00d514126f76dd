"""Benchmark of the ibkernel pipeline: interpolate and spread, marker by marker.

    python3 bench/run.py --workload circle_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

A named workload runs in fresh worker processes (bench/worker.py), each
single-threaded with BLAS held to one thread: one that sets up and
measures, and SETUPS - 1 around it that only set up. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer ones traced).
``--workload all`` runs every workload in turn; with ``--trace 1`` it runs
each untraced and traced and also prints the tracing overhead. Each record
is kept in bench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("circle_sweep", "transfer_2d", "sphere_3d")
# Set-up is timed in this many fresh processes; setup_s is their median.
SETUPS = 5
# Every run ends within this many seconds of its start.
DEADLINE_S = 175.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(Exception):
    pass


def _worker(args, deadline):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: "1" for name in THREAD_ENV})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("out of time before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rate(rounds, count, seconds):
    """Work over time, summed over every round of the run."""
    return sum(r[count] for r in rounds) / sum(r[seconds] for r in rounds)


def run_workload(name, seed, seconds, trace, deadline):
    """One run: returns (result line, full record)."""
    common = ["--workload", name, "--seed", str(seed)]
    # Set-up workers run half before and half after the measuring one, so
    # their median spans the run rather than one stretch of it.
    extra = 0 if trace else SETUPS - 1
    setups = [_worker(common + ["--setup-only"], deadline)["setup_s"]
              for _ in range(extra // 2)]
    record = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)],
                     deadline)
    setups += [_worker(common + ["--setup-only"], deadline)["setup_s"]
               for _ in range(extra - extra // 2)]
    rounds = record["rounds"]
    if trace:
        metrics = record["trace"]
    else:
        setups.append(record["setup_s"])
        record["setup_runs_s"] = setups
        metrics = {
            "markers_per_s": {"value": _rate(rounds, "passed", "timed_s"), "unit": "1/s"},
            "interp_markers_per_s": {"value": _rate(rounds, "interp_n", "interp_s"), "unit": "1/s"},
            "spread_markers_per_s": {"value": _rate(rounds, "spread_n", "spread_s"), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not record["problems"] and not record["unexpected_failures"],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(record["failed_by_class"].values()),
        "metrics": metrics,
    }
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def _summary(name, result, record):
    lines = [
        f"{name}: correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} rounds={len(record['rounds'])}",
        f"  failed by class: {dict(record['failed_by_class'])}",
        f"  failed by setting: {record['failed_by_setting']}",
        f"  solve modes: {dict(record['modes'])}",
    ]
    for problem in record["problems"][:10] + record["unexpected_failures"][:10]:
        lines.append(f"  CHECK FAILED {problem}")
    for key, m in result["metrics"].items():
        lines.append(f"  {key:44s} {m['value']:>14.6g} {m['unit']}")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        if args.workload != "all":
            deadline = time.monotonic() + DEADLINE_S
            result, record = run_workload(args.workload, args.seed, args.seconds,
                                          args.trace, deadline)
            print(_summary(args.workload, result, record))
            print(json.dumps(result))
            return 0
        results = {}
        for name in WORKLOADS:
            modes = (0, 1) if args.trace else (0,)
            for trace in modes:
                deadline = time.monotonic() + DEADLINE_S
                results[(name, trace)] = run_workload(name, args.seed, args.seconds,
                                                      trace, deadline)
                print(_summary(name + (" (traced)" if trace else ""),
                               *results[(name, trace)]), flush=True)
            if args.trace:
                plain = statistics.median(
                    r["timed_s"] for r in results[(name, 0)][1]["rounds"])
                traced = results[(name, 1)][1]["rounds"][0]["timed_s"]
                print(f"  tracing overhead: {traced - plain:+.3f} s per round "
                      f"({(traced - plain) / plain:+.1%} of {plain:.3f} s)")
        print(json.dumps({f"{n}{'.traced' if t else ''}": r
                          for (n, t), (r, _) in results.items()}))
        return 0
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
