#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 30 \
        [--workloads train_prune,serve_swap] [--out perfbench/steadiness.md]

Runs each workload once per seed and writes a markdown table. Each row
gives a metric's bound from BENCHMARK.json, its median over the runs and
its spread: the quartile distance over the median. For the repeated
timings (set-up and the two phases) it also gives the spread of each
candidate statistic (median and both tails), the one that repeated best
(stats.best_statistic; "unresolved" when even it moved by more than
stats.TOLERANCE) and the one run.py's GATED gates; a row whose two
differ is marked MISMATCH.
"""

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    if not run.build():
        return 3

    rows = ["| workload | metric | unit | bound | median | spread | spread / bound "
            "| median / tail / fast spread → choice (gated) |",
            "|---|---|---|---|---|---|---|---|"]
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            metrics, _, _, failures = run.measure(workload, seed, args.seconds, 0)
            if failures:
                print("%s seed %d failed: %s" % (workload, seed, failures))
                return 1
            runs.append(metrics)
            print(workload, seed, {k: round(m["value"], 6) for k, m in metrics.items()},
                  flush=True)
        for name in run.UNITS:
            values = [m[name]["value"] for m in runs]
            spread = stats.relative_spread(values)
            choice = ""
            if "median" in runs[0][name]:
                summaries = [m[name] for m in runs]
                best, best_spread = stats.best_statistic(summaries)
                gated = run.GATED[workload][name]
                choice = "%s → %s%s (%s)%s" % (" / ".join(
                    "%.3f" % stats.relative_spread([s[c] for s in summaries])
                    for c in stats.STATISTICS), best,
                    "" if best_spread <= stats.TOLERANCE else ", unresolved",
                    gated, "" if best == gated else " MISMATCH")
            rows.append("| %s | %s | %s | %.2f | %.6g | %.3f | %.2f | %s |" % (
                workload, name, run.UNITS[name], bounds[name],
                stats.median(values), spread, spread / bounds[name], choice))
    header = ("Measured %s on %s (%d logical CPUs), %d seeds (%s), --seconds %g.\n\n"
              % (time.strftime("%Y-%m-%d"), platform.machine(), os.cpu_count(),
                 len(seed_list(args.seeds)), args.seeds, args.seconds))
    text = header + "\n".join(rows) + "\n"
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
