#!/usr/bin/env python3
"""Outside-in benchmark of the PruneTrain library.

    python3 perfbench/run.py --workload train_prune|train_elastic|serve_swap \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the library sources it links) into
.bench_build/perfbench, runs one workload in a child process, reduces its
raw timestamps to metrics, checks the outputs, prints every metric with its
unit and, as the last stdout line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits non-zero, without that line, when the build, the run or a
correctness check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402
import trace_metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("train_prune", "train_elastic", "serve_swap")
RUN_TIMEOUT_S = 170
# Final test accuracy must be at least twice chance (10 classes).
MIN_ACCURACY = 0.2

# Which statistic of each repeated timing BENCHMARK.json gates, per
# workload. setup_s is the median of its set-ups. A phase timing gates the
# statistic whose largest spread over the ten-seed sets in steadiness.md
# is smallest (steadiness.md records every spread).
GATED = {
    "train_prune": {"setup_s": "median", "dense_ms_per_item": "tail",
                    "pruned_ms_per_item": "tail"},
    "train_elastic": {"setup_s": "median", "dense_ms_per_item": "fast",
                      "pruned_ms_per_item": "fast"},
    "serve_swap": {"setup_s": "median", "dense_ms_per_item": "fast",
                   "pruned_ms_per_item": "fast"},
}

UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "dense_ms_per_item": "ms",
    "pruned_ms_per_item": "ms",
    "peak_rss_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) are missing")
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--", "-j2"]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def run_child(workload, seed, seconds, trace, run_dir):
    """Runs perfbench; returns its raw record. The records of an untraced
    run's timed runs come back as raw["reps"]."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--run-dir", run_dir]
    out_path = os.path.join(run_dir, "stdout.txt")
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=sys.stderr)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("perfbench timed out")
    if code != 0:
        raise RuntimeError("perfbench exited with code %d" % code)
    with open(out_path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("perfbench printed nothing")
    raw = json.loads(lines[-1])
    reps_path = os.path.join(run_dir, "reps.jsonl")
    if os.path.exists(reps_path):
        with open(reps_path) as f:
            raw["reps"] = [json.loads(line) for line in f]
    return raw


def finite(x):
    return x is not None and isinstance(x, (int, float)) and math.isfinite(x)


class Checks:
    def __init__(self):
        self.failures = []

    def require(self, ok, what):
        if not ok:
            self.failures.append(what)


def timing(workload, name, samples_ms):
    s = stats.summarize(samples_ms)
    s["value"] = stats.gated(s, GATED[workload][name])
    return s


def reduce_train(raw, checks):
    """Training record -> metrics, (attempted, failed), printed extras."""
    dense_ms, pruned_ms, boundary_ms = [], [], []
    setup = list(raw["setup_probes"])
    items = seconds = 0.0
    attempted = failed = 0
    digests, widths = set(), set()
    reps = raw["reps"]
    for rep in reps:
        r = stats.train_rep(rep)
        dense_ms += r["dense_ms"]
        pruned_ms += r["pruned_ms"]
        boundary_ms += r["boundary_ms"]
        setup.append(r["setup_s"])
        items += r["items"]
        seconds += r["seconds"]
        attempted += len(rep["step_t"])
        failed += rep["steps_discarded"]
        digests.add(rep["digest"])
        widths.add(tuple(rep["final_widths"]))
        losses = [e["train_loss"] for e in rep["epochs"]]
        checks.require(all(finite(x) for x in losses), "non-finite training loss")
        checks.require(rep["final_test_acc"] >= MIN_ACCURACY,
                       "final accuracy %.3f is not clearly above chance"
                       % rep["final_test_acc"])
        checks.require(rep["final_flops_train"] < rep["initial_flops_train"],
                       "the run never pruned (flops ratio 1)")
        checks.require(not rep["health_events"] and rep["rollbacks"] == 0,
                       "guardian events: %s" % rep["health_events"])
    checks.require(len(digests) == 1 and len(widths) == 1,
                   "repeated runs of one fixture diverged")
    dense_ms += stats.per_item_ms(raw["probe_dense_steps"], reps[0]["batch"])
    pruned_ms += stats.per_item_ms(raw["probe_pruned_steps"], reps[0]["batch"])
    checks.require(dense_ms and pruned_ms, "no dense-phase or pruned-phase steps")
    rep = reps[0]
    extras = {
        "prune.flops_ratio": rep["final_flops_train"] / rep["initial_flops_train"],
        "prune.channels_alive": rep["final_channels"],
        "final_test_acc": rep["final_test_acc"],
        "runs": len(reps),
        "modeled dense/pruned ms per item (DeviceModel)":
            (rep["modeled_dense_step_ms"] / rep["batch"],
             rep["modeled_pruned_step_ms"] / rep["batch"]),
        "core.boundary_ms (median)": stats.median(boundary_ms),
    }
    metrics = {
        "setup_s": timing(raw["workload"], "setup_s", setup),
        "items_per_s": {"value": items / seconds, "n": len(reps)},
        "dense_ms_per_item": timing(raw["workload"], "dense_ms_per_item", dense_ms),
        "pruned_ms_per_item": timing(raw["workload"], "pruned_ms_per_item", pruned_ms),
    }
    return metrics, (attempted, failed), extras


def reduce_serve(raw, checks):
    dense_ms, pruned_ms = [], []
    setup = list(raw["setup_probes"])
    items = seconds = 0.0
    attempted = failed = 0
    reps = raw["reps"]
    for rep in reps:
        r = stats.serve_rep(rep)
        dense_ms += r["dense_ms"]
        pruned_ms += r["pruned_ms"]
        setup.append(r["setup_s"])
        items += r["items"]
        seconds += r["seconds"]
        attempted += rep["requests"]
        failed += rep["shed"] + rep["dropped"]
        checks.require(rep["dropped"] == 0, "dropped requests")
        checks.require(rep["admitted"] == rep["completed"],
                       "admitted != completed")
        checks.require(len(rep["swaps"]) >= 2 and
                       rep["swaps"][-1]["to_generation"] == 1,
                       "the pruned generation was never swapped in")
        checks.require(rep["non_finite_logits"] == 0, "non-finite logits")
        checks.require(not rep["health_events"] and rep["rollbacks"] == 0 and
                       rep["quarantined"] == 0,
                       "serve health events: %s" % rep["health_events"])
    checks.require(dense_ms and pruned_ms, "no dense or pruned windows")
    rep = reps[0]
    extras = {
        "prune.flops_ratio": rep["pruned_flops_inf"] / rep["dense_flops_inf"],
        "prune.channels_alive": rep["pruned_channels"],
        "runs": len(reps),
        "serve.batch_fill": rep["mean_batch_size"] / rep["max_batch"],
        "modeled p99 ticks": rep["modeled_p99_ticks"],
        "modeled service ticks per batch (dense, pruned)":
            [s["service_ticks_per_batch"] for s in rep["swaps"]],
    }
    metrics = {
        "setup_s": timing("serve_swap", "setup_s", setup),
        "items_per_s": {"value": items / seconds, "n": len(reps)},
        "dense_ms_per_item": timing("serve_swap", "dense_ms_per_item", dense_ms),
        "pruned_ms_per_item": timing("serve_swap", "pruned_ms_per_item", pruned_ms),
    }
    return metrics, (attempted, failed), extras


def describe(name, m):
    line = "  %-22s %14.6g %s" % (name, m["value"], m["unit"])
    if "median" in m:
        line += "   (median %.6g, p%.1f %.6g, p%.1f %.6g, n=%d)" % (
            m["median"], m["fast_pct"], m["fast"], m["tail_pct"], m["tail"],
            m["n"])
    elif "n" in m:
        line += "   (n=%d)" % m["n"]
    return line


def measure(workload, seed, seconds, trace):
    """Runs and reduces one workload (the build must be current).

    Returns (metrics, (attempted, failed), extras, failures): metrics maps
    each reported metric to its value, unit and, for timings, its summary;
    failures lists the correctness checks that failed. Raises when the run
    itself fails.
    """
    run_dir = os.path.join(ROOT, ".bench_build", "run",
                           "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        raw = run_child(workload, seed, seconds, trace, run_dir)
        checks = Checks()
        if trace:
            metrics, counts, extras = trace_metrics.reduce(raw, run_dir, checks)
        elif workload == "serve_swap":
            metrics, counts, extras = reduce_serve(raw, checks)
        else:
            metrics, counts, extras = reduce_train(raw, checks)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not trace:
        metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"]}
        for name, unit in UNITS.items():
            metrics[name]["unit"] = unit
    bad = [k for k, v in metrics.items() if not finite(v["value"])]
    if bad:
        checks.require(False, "non-finite metrics: %s" % ", ".join(bad))
    return metrics, counts, extras, checks.failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 3
    try:
        metrics, (attempted, failed), extras, failures = measure(
            args.workload, args.seed, args.seconds, args.trace)
    except Exception as e:  # a failed run prints no result line
        log("perfbench: %s" % e)
        return 4
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for name, m in metrics.items():
        print(describe(name, m))
    for name, value in extras.items():
        print("  %-22s %s" % (name, value))
    print("  attempted %d, failed %d (share %.4f)"
          % (attempted, failed, stats.failure_share(attempted, failed)))
    if failures:
        for f in failures:
            log("perfbench: CHECK FAILED: %s" % f)
        return 1
    out = {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
