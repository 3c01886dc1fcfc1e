"""Arithmetic of the outside-in benchmark: order statistics, the gated
statistic, phase and window attribution, and failure shares.

Everything here is a pure function of the raw record perfbench prints, so
it is unit-tested on its own (test_stats.py).
"""

import math
import statistics

# A tail percentile is only reported where at least this many samples lie
# beyond it, so it is never a single outlier.
MIN_BEYOND = 10

# A statistic is resolved when repeated runs of the same code agree on it
# within this share of its median (steadiness.py).
TOLERANCE = 0.1

# Generation ids of the serving workload: the dense model is published
# first, the pruned one is swapped in mid-trace.
DENSE_GENERATION, PRUNED_GENERATION = 0, 1


def median(values):
    return statistics.median(values) if values else float("nan")


def tail_percentile(values, side="high"):
    """The most extreme percentile with at least MIN_BEYOND samples past it.

    side="high": the highest percentile with MIN_BEYOND samples above it
    (the slow tail of a timing); side="low": the lowest percentile with
    MIN_BEYOND samples below it (the fast tail). Returns (value,
    percentile, count), the percentile being the sample's rank in percent
    of n - 1. With MIN_BEYOND samples or fewer there is no such percentile
    and value and percentile are NaN.
    """
    xs = sorted(values)
    n = len(xs)
    if n < MIN_BEYOND + 1:
        return float("nan"), float("nan"), n
    i = n - 1 - MIN_BEYOND if side == "high" else MIN_BEYOND
    pct = 100.0 * i / (n - 1)
    return xs[i], pct, n


def summarize(values):
    """Median and both tail percentiles of one timing's samples."""
    tail, tail_pct, n = tail_percentile(values, side="high")
    fast, fast_pct, _ = tail_percentile(values, side="low")
    return {"median": median(values), "tail": tail, "tail_pct": tail_pct,
            "fast": fast, "fast_pct": fast_pct, "n": n}


STATISTICS = ("median", "tail", "fast")


def gated(summary, statistic):
    """The value BENCHMARK.json gates: one of STATISTICS."""
    if statistic not in STATISTICS:
        raise ValueError("unknown statistic %r" % statistic)
    return summary[statistic]


def relative_spread(values):
    """Inter-quartile range over the median (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q3 - q1) / m if m else float("inf")


def best_statistic(summaries):
    """(name, spread) of the statistic that repeats best across runs.

    `summaries` holds one summarize() result per run of the same code; the
    statistic with the smallest relative spread wins. A statistic some
    run could not report (NaN) does not compete.
    """
    best, best_spread = None, float("inf")
    for name in STATISTICS:
        values = [s[name] for s in summaries]
        if any(math.isnan(v) for v in values):
            continue
        spread = relative_spread(values)
        if spread < best_spread:
            best, best_spread = name, spread
    return best, best_spread


def intervals(stamps):
    """Differences of consecutive timestamps: unit k lasted
    stamps[k + 1] - stamps[k]."""
    return [b - a for a, b in zip(stamps, stamps[1:])]


def step_intervals(durations, step_epoch):
    """Splits per-step durations at epoch boundaries.

    durations[i - 1] is the interval that ends at step i (i >= 1). It is a
    boundary interval when step i opens a new epoch (it then also holds the
    previous epoch's eval, health check, reconfiguration and checkpoint).
    Returns (regular, boundary): regular is a list of (epoch, seconds),
    boundary a list of seconds. The first step's own time belongs to
    set-up.
    """
    regular, boundary = [], []
    for i in range(1, len(step_epoch)):
        dt = durations[i - 1]
        if step_epoch[i] != step_epoch[i - 1]:
            boundary.append(dt)
        else:
            regular.append((step_epoch[i], dt))
    return regular, boundary


def shrink_epochs(epochs, initial_channels):
    """Epochs that ended with a reconfiguration that removed channels."""
    out, prev = [], initial_channels
    for e in epochs:
        if e["reconfigured"] and e["channels"] < prev:
            out.append(e["epoch"])
        prev = e["channels"]
    return out


def phase_steps(regular, shrinks, last_epoch):
    """Splits regular step intervals into the dense and pruned phases.

    Dense: steps in epochs up to and including the epoch whose end brought
    the first shrinking reconfiguration (the unpruned model ran them).
    Pruned: steps after the last shrinking reconfiguration that still has
    training after it (the final architecture ran them). Without any
    shrink every step is dense and none is pruned.
    """
    shrinks = [e for e in shrinks if e < last_epoch]
    if not shrinks:
        return [dt for _, dt in regular], []
    first, last = shrinks[0], shrinks[-1]
    dense = [dt for e, dt in regular if e <= first]
    pruned = [dt for e, dt in regular if e > last]
    return dense, pruned


def serve_windows(window_ticks, seconds, formed, generation, swap_ticks):
    """Attributes served requests to modeled-clock windows.

    Window k spans ticks [window_ticks[k], window_ticks[k+1]) and lasted
    seconds[k]. A request belongs to the window
    in which its batch was formed (its forward pass ran then). A window is
    dense when every request in it was served by the dense generation,
    pruned when every one was served by the pruned generation; windows
    that are empty, mixed, or hold a swap tick (the publish ran inside
    them) are neither. Returns (dense, pruned): lists of (requests, seconds).
    """
    nwin = len(window_ticks) - 1
    counts = [dict() for _ in range(nwin)]
    for tick, gen in zip(formed, generation):
        k = _window_of(window_ticks, tick)
        if k is not None:
            counts[k][gen] = counts[k].get(gen, 0) + 1
    dense, pruned = [], []
    for k in range(nwin):
        lo, hi = window_ticks[k], window_ticks[k + 1]
        if any(lo <= s < hi for s in swap_ticks):
            continue
        gens = counts[k]
        if len(gens) != 1:
            continue
        (gen, n), = gens.items()
        item = (n, seconds[k])
        if gen == DENSE_GENERATION:
            dense.append(item)
        elif gen == PRUNED_GENERATION:
            pruned.append(item)
    return dense, pruned


def _window_of(window_ticks, tick):
    lo, hi = 0, len(window_ticks) - 1
    if hi < 1 or tick < window_ticks[0] or tick >= window_ticks[hi]:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if window_ticks[mid] <= tick:
            lo = mid
        else:
            hi = mid
    return lo


def failure_share(attempted, failed):
    """Failed operations as a share of attempted ones."""
    if attempted <= 0:
        raise ValueError("no operation attempted")
    return failed / attempted


def per_item_ms(step_seconds, batch):
    """Wall ms per sample of each optimizer step."""
    return [1e3 * s / batch for s in step_seconds]


def train_rep(rep):
    """Reduces one PruneTrainer run of the raw record.

    Returns per-item ms of the dense and pruned phases, boundary-interval
    ms, set-up seconds, and samples and seconds of the timed phase (end of
    the first step to the end of run()).
    """
    t = rep["step_t"]
    regular, boundary = step_intervals(intervals(t), rep["step_epoch"])
    shrinks = shrink_epochs(rep["epochs"], rep["initial_channels"])
    dense, pruned = phase_steps(regular, shrinks, rep["epochs"][-1]["epoch"])
    batch = rep["batch"]
    return {
        "dense_ms": per_item_ms(dense, batch),
        "pruned_ms": per_item_ms(pruned, batch),
        "boundary_ms": [1e3 * d for d in boundary],
        "setup_s": t[0],
        "items": (len(t) - 1) * batch,
        "seconds": rep["end_t"] - t[0],
    }


def serve_rep(rep):
    """Reduces one serve replay of the raw record."""
    t = rep["window_t"]
    swaps = [s["tick"] for s in rep["swaps"]]
    dense, pruned = serve_windows(rep["window_ticks"], intervals(t),
                                  rep["formed"], rep["generation"], swaps)
    return {
        "dense_ms": [1e3 * s / n for n, s in dense],
        "pruned_ms": [1e3 * s / n for n, s in pruned],
        "setup_s": t[0],
        "items": rep["completed"],
        "seconds": rep["end_t"] - t[0],
    }
