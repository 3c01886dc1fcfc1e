"""Reduction of the traced per-layer run.

perfbench --trace 1 writes every span (name, start, end, parent) to
<run-dir>/spans.jsonl and prints the untraced reference record plus a few
counted values. Among them, per graph call, the library's own per-node
profile summed by layer kind ("layers"). This module pairs each graph call
with its profile, aggregates per step or per call (medians) and maps the
result onto the per-layer metrics of BENCHMARK.json.
"""

import json
import math
import os
import stats

SWEEP = ("w1", "w0.5", "w0.25", "w0.125")
KINDS = ("conv2d", "batchnorm", "other")


def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            name, start, end, parent = line.split()
            spans.append((json.loads(name), float(start), float(end), int(parent)))
    return spans


class Spans:
    def __init__(self, spans):
        self.spans = spans
        self.by_name = {}
        for i, (name, start, end, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)

    def durations(self, name):
        """Durations of the spans called `name`, in call order."""
        return [self.spans[i][2] - self.spans[i][1] for i in self.by_name.get(name, [])]

    def median_ms(self, name):
        return 1e3 * stats.median(self.durations(name))


def graph_calls(sp, layers, tag):
    """One dict per profiled graph call of `tag`, in call order: its span
    durations ("graph.forward", "graph.backward", "loss") and its profile
    seconds by layer kind ("conv2d.fwd", ...)."""
    names = ("graph.forward", "graph.backward", "loss")
    spans = {n: sp.durations("%s.%s" % (n, tag)) for n in names}
    profiles = layers[tag]
    if any(len(d) != len(profiles) for d in spans.values()):
        raise ValueError("graph spans and profiles of %r do not pair up" % tag)
    return [dict(p, **{n: spans[n][k] for n in names})
            for k, p in enumerate(profiles)]


def median_ms(calls, f):
    return 1e3 * stats.median([f(c) for c in calls])


def layer_s(call, kind):
    return call[kind + ".fwd"] + call[kind + ".bwd"]


def _serve_counts(rec):
    return {
        "serve.batch_fill": (rec["mean_batch_size"] / rec["max_batch"], "ratio"),
        "serve.shed": (rec["shed"], "count"),
        "serve.late": (rec["late"], "count"),
        "serve.modeled_p99_ticks": (rec["modeled_p99_ticks"], "ticks"),
    }


def _dense_pruned_ms(rec):
    """Median dense and pruned ms per item of an untraced record, and its
    boundary intervals (training only)."""
    r = stats.train_rep(rec) if "step_t" in rec else stats.serve_rep(rec)
    return (stats.median(r["dense_ms"]), stats.median(r["pruned_ms"]),
            r.get("boundary_ms", []))


def reduce(raw, run_dir, checks):
    sp = Spans(load_spans(os.path.join(run_dir, "spans.jsonl")))
    v = raw["values"]
    untraced = raw["untraced"]
    serve = raw["serve"]
    batch = v["batch"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    # tensor
    for g in ("gemm_nn", "gemm_nt", "gemm_tn"):
        put("tensor.%s.gflops" % g,
            v["tensor.gemm.flops_per_call"] / (sp.median_ms("tensor." + g) * 1e-3) / 1e9,
            "GFLOP/s")
    put("tensor.im2col.ms", sp.median_ms("tensor.im2col"), "ms")
    put("tensor.col2im.ms", sp.median_ms("tensor.col2im"), "ms")

    # nn (per optimizer step at the workload batch), from the profile
    calls = {tag: graph_calls(sp, v["layers"], tag) for tag in ("dense", "pruned") + SWEEP}
    for tag in ("dense", "pruned"):
        for p in ("fwd", "bwd"):
            put("nn.conv2d.%s_ms.%s" % (p, tag),
                median_ms(calls[tag], lambda c: c["conv2d." + p]), "ms")
    dense = calls["dense"]
    put("nn.batchnorm.ms", median_ms(dense, lambda c: layer_s(c, "batchnorm")), "ms")
    put("nn.other.ms", median_ms(dense, lambda c: layer_s(c, "other") + c["loss"]), "ms")
    sweep = {s["tag"]: s for s in v["sweep"]}
    for tag in SWEEP:
        for p in ("fwd", "bwd"):
            ms = median_ms(calls[tag], lambda c: c["conv2d." + p])
            put("nn.conv2d.%s_gflops.%s" % (p, tag),
                sweep[tag]["%s_flops" % p] / (ms * 1e-3) / 1e9, "GFLOP/s")

    # graph: the graph call minus the layers the profile timed in it
    put("graph.forward_ms", median_ms(dense, lambda c: c["graph.forward"]), "ms")
    put("graph.backward_ms", median_ms(dense, lambda c: c["graph.backward"]), "ms")
    put("graph.overhead_ms", median_ms(
        dense, lambda c: c["graph.forward"] + c["graph.backward"] -
        sum(layer_s(c, k) for k in KINDS)), "ms")

    # optim, data
    put("optim.sgd_step_ms", sp.median_ms("optim.sgd_step.dense"), "ms")
    put("data.batch_ms", sp.median_ms("data.batch"), "ms")

    # prune
    dense_ms, pruned_ms, boundary_ms = _dense_pruned_ms(untraced)
    if "initial_flops_train" in untraced:
        flops_ratio = untraced["final_flops_train"] / untraced["initial_flops_train"]
        channels = untraced["final_channels"]
    else:
        flops_ratio = untraced["pruned_flops_inf"] / untraced["dense_flops_inf"]
        channels = untraced["pruned_channels"]
    put("prune.hooks_ms_per_step", sp.median_ms("prune.hooks.dense"), "ms")
    put("prune.reconfigure_ms", sp.median_ms("prune.reconfigure"), "ms")
    put("prune.materialize_ms", sp.median_ms("prune.materialize"), "ms")
    put("prune.flops_ratio", flops_ratio, "ratio")
    put("prune.channels_alive", channels, "count")
    put("prune.speedup_per_flops", (dense_ms / pruned_ms) * flops_ratio, "ratio")

    # dist
    put("dist.exchange_ms_per_step", sp.median_ms("dist.exchange"), "ms")
    put("dist.encode_ms", sp.median_ms("dist.encode"), "ms")
    put("dist.decode_ms", sp.median_ms("dist.decode"), "ms")
    put("dist.wire_bytes_per_step", v["dist.wire_bytes_per_step"], "bytes")
    put("dist.wire_fraction", v["dist.wire_fraction"], "ratio")

    # exec
    put("exec.dispatch_us", 1e3 * sp.median_ms("exec.dispatch"), "us")
    put("exec.parallel_efficiency",
        sp.median_ms("exec.step.t1") / sp.median_ms("exec.step.t2") / 2.0, "ratio")
    put("exec.workspace_peak_mb", v["exec.workspace_peak_mb"], "MB")

    # robust, ckpt
    put("robust.digest_ms", sp.median_ms("robust.digest"), "ms")
    put("robust.scrub_ms", sp.median_ms("robust.scrub"), "ms")
    put("robust.canary_ms", sp.median_ms("robust.canary"), "ms")
    put("ckpt.save_ms", sp.median_ms("ckpt.save"), "ms")
    put("ckpt.load_ms", sp.median_ms("ckpt.load"), "ms")
    put("ckpt.mb", v["ckpt.mb"], "MB")

    # telemetry
    put("telemetry.record_ms_first", sp.median_ms("telemetry.record.first"), "ms")
    put("telemetry.record_ms_last", sp.median_ms("telemetry.record.last"), "ms")
    put("telemetry.profiling_overhead_pct",
        100.0 * (sp.median_ms("telemetry.step.profiled") /
                 sp.median_ms("telemetry.step.plain") - 1.0), "%")

    # serve
    fwd_dense = sp.median_ms("serve.forward.dense")
    fwd_pruned = sp.median_ms("serve.forward.pruned")
    put("serve.forward_ms_per_batch.dense", fwd_dense, "ms")
    put("serve.forward_ms_per_batch.pruned", fwd_pruned, "ms")
    gens = serve["generation"]
    n_dense = sum(1 for g in gens if g == 0)
    est_ms = (n_dense * fwd_dense + (len(gens) - n_dense) * fwd_pruned) / serve["mean_batch_size"]
    wall_ms = 1e3 * (serve["window_t"][-1] - serve["window_t"][0])
    put("serve.loop_overhead_pct", 100.0 * (1.0 - est_ms / wall_ms), "%")
    put("serve.publish_ms", sp.median_ms("serve.publish"), "ms")
    for name, (value, unit) in _serve_counts(serve).items():
        put(name, value, unit)

    # core
    if not boundary_ms:
        _, _, boundary_ms = _dense_pruned_ms(raw["boundary_run"])
    put("core.boundary_ms", stats.median(boundary_ms), "ms")

    # The traced replay's own cost, against the untraced run.
    traced_ms_per_item = (sp.median_ms("step.dense") if "step_t" in untraced
                          else fwd_dense) / batch
    put("trace.overhead_pct", 100.0 * (traced_ms_per_item / dense_ms - 1.0), "%")

    # correctness of the traced run
    if "bitwise_equal" in raw:
        checks.require(raw["bitwise_equal"],
                       "the step-timestamping strategy changed the trajectory")
    checks.require(serve["dropped"] == 0 and serve["admitted"] == serve["completed"],
                   "serve replay dropped requests")
    checks.require(serve["non_finite_logits"] == 0, "non-finite logits")
    checks.require(len(serve["swaps"]) >= 2, "serve replay never swapped")
    attempted = len(sp.by_name.get("step.dense", [])) + len(
        sp.by_name.get("step.pruned", [])) + serve["requests"]
    failed = serve["shed"] + serve["dropped"]
    extras = {
        "rounds": v["rounds"],
        "width sweep (modeled roofline ms fwd/bwd)":
            ["%s %.4f/%.4f" % (s["tag"], s["modeled_fwd_ms"], s["modeled_bwd_ms"])
             for s in v["sweep"]],
        "untraced dense/pruned ms per item": (dense_ms, pruned_ms),
    }
    bad = [k for k, x in m.items() if not (isinstance(x["value"], (int, float))
                                           and math.isfinite(x["value"]))]
    checks.require(not bad, "non-finite per-layer metrics: %s" % bad)
    return m, (attempted, failed), extras
