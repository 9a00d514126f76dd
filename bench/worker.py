"""Run one workload in this (fresh) process and print its record as one JSON line.

Started by run.py with BLAS held to one thread and ``src`` on the path.
The set-up clock starts before ``import ibkernel``. With ``--setup-only``
the process stops after set-up; otherwise it runs whole rounds until
``--seconds`` have passed (exactly one round when traced, so that call
counts repeat) and reports the timed totals of each round.
"""

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import ibkernel
    if SRC not in Path(ibkernel.__file__).resolve().parents:
        sys.exit(f"ibkernel imported from {ibkernel.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    import workloads
    workload = getattr(workloads, args.workload)(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import contextlib
    import checks
    paused = tracer.paused if tracer else contextlib.nullcontext
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round(paused))
        if tracer or time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f for r in rounds for f in r.failures]
    problems = checks.check_psi6_profile() + [p for r in rounds for p in r.problems]
    unexpected = workloads.unexpected_failures(failures)
    by_setting = {}
    for (setting, _), cls in failures:
        by_setting.setdefault(setting, Counter())[cls] += 1
    record = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "rounds": [
            {"attempted": r.attempted, "passed": r.passed,
             "interp_n": r.interp_n, "interp_s": r.interp_s,
             "spread_n": r.spread_n, "spread_s": r.spread_s,
             "timed_s": r.timed_s, "wall_s": r.wall_s}
            for r in rounds
        ],
        "failed_by_class": Counter(cls for _, cls in failures),
        "failed_by_setting": by_setting,
        "modes": sum((r.modes for r in rounds), Counter()),
        "unexpected_failures": [f"{label}: {cls}" for label, cls in unexpected],
        "problems": problems[:50],
        "n_problems": len(problems),
    }
    if tracer:
        tracer.uninstall()
        record["trace"] = tracer.metrics()
        record["trace_missing"] = tracer.missing
        record["trace_other_counts"] = {
            k: v for k, v in tracer.counts.items() if k not in record["trace"]}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
