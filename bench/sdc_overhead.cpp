// Silent-data-corruption defense bench: what does the per-tensor digest
// pass cost per step at several check intervals, how fast is an injected
// bitflip caught, and does the in-place heal really restore the run bit
// for bit?
//
//   $ ./sdc_overhead [--steps N] [--batch N] [--replicas N] [--out BENCH.json]
//
// Three things are measured and written to BENCH_sdc_overhead.json:
//
//  1. Heal equivalence (always, on any machine): a finite bitflip planted
//     in replica 1's parameters right before a scheduled digest vote must
//     be convicted within one check interval and healed in place, after
//     which every remaining step is bitwise-identical to a fault-free
//     run of the same schedule. Reported as heal_bitwise
//     (run_bench_suite.sh fails the suite when it is false).
//  2. Detection latency: optimizer steps between the corrupting step and
//     the convicting vote, at the configured interval.
//  3. Steady-state overhead: mean seconds per step with the digest vote
//     running every 1 / 4 / 16 steps vs no monitor at all — the price of
//     the defense as a percentage per step.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "dist/elastic.h"
#include "exec/context.h"
#include "optim/sgd.h"
#include "robust/fault.h"
#include "robust/integrity.h"
#include "telemetry/bench_export.h"

namespace {

using pt::Tensor;

pt::graph::Network build_model() {
  pt::models::ModelConfig cfg;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.classes = 8;
  cfg.width_mult = 0.5f;
  cfg.seed = 21;
  return pt::models::build_resnet_basic(8, cfg);
}

std::vector<pt::graph::Network> build_replicas(int n) {
  std::vector<pt::graph::Network> nets;
  nets.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) nets.push_back(build_model());
  return nets;
}

pt::cost::CommSpec spec_for(int gpus) {
  pt::cost::CommSpec s;
  s.gpus = gpus;
  return s;
}

pt::data::Batch make_batch(std::int64_t n, std::uint64_t seed) {
  pt::Rng rng(seed);
  pt::data::Batch b;
  b.images = Tensor::randn({n, 3, 8, 8}, rng);
  for (std::int64_t i = 0; i < n; ++i) {
    b.labels.push_back(static_cast<std::int64_t>(rng.uniform_int(8)));
  }
  return b;
}

bool params_bitwise_equal(pt::graph::Network& a, pt::graph::Network& b) {
  auto pa = a.params();
  auto pb = b.params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->value.numel() != pb[i]->value.numel()) return false;
    if (std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                    sizeof(float) *
                        static_cast<std::size_t>(pa[i]->value.numel())) != 0) {
      return false;
    }
  }
  return true;
}

/// Digest-votes `c`'s full replica set and heals convicted minorities via
/// ElasticCluster::heal_replica — the same wiring core::PruneTrainer uses.
pt::robust::VoteOutcome vote(pt::robust::IntegrityMonitor& mon,
                             pt::dist::ElasticCluster& c,
                             pt::exec::ExecContext& ctx) {
  std::vector<pt::robust::ReplicaView> views;
  for (int r = 0; r < c.size(); ++r) views.push_back({r, &c.replica(r)});
  return mon.check_replicas(views, ctx, nullptr, [&](int victim, int root) {
    return c.heal_replica(victim, root);
  });
}

}  // namespace

int main(int argc, char** argv) {
  pt::CliFlags flags;
  flags.define("steps", "24", "timed steps per monitor variant");
  flags.define("batch", "16", "global mini-batch size");
  flags.define("replicas", "3", "simulated data-parallel replicas (>= 3 "
               "so a single victim is a strict minority)");
  flags.define("out", "BENCH_sdc_overhead.json",
               "output artifact path (BENCH_*.json format)");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("sdc_overhead");
    return 0;
  }
  const std::int64_t steps = flags.get_int("steps");
  const std::int64_t batch = flags.get_int("batch");
  const int replicas = static_cast<int>(flags.get_int("replicas"));
  pt::exec::ExecContext ctx(2);

  std::cout << "sdc_overhead: ResNet-8(w0.5)/8x8, " << replicas
            << " replicas, batch " << batch << ", " << steps << " steps\n";

  // 1. Heal equivalence + detection latency. A fault-free cluster and a
  // victim cluster run the same schedule; the victim gets a finite bitflip
  // in replica 1's params after step 3 and a digest vote every 4 steps —
  // the vote after step 3 convicts and heals before step 4's forward can
  // fold corrupted gradients into the majority.
  const std::int64_t check_interval = 4;
  const std::int64_t inject_step = 3;
  pt::dist::ElasticCluster clean(build_replicas(replicas), spec_for(replicas));
  pt::dist::ElasticCluster victim(build_replicas(replicas), spec_for(replicas));
  victim.set_fault_injector(pt::robust::FaultInjector::from_string(
      "sdc-param:replica=1,step=" + std::to_string(inject_step), 11));
  pt::robust::IntegrityMonitor monitor(check_interval);
  pt::optim::SGD opt_a(0.05f, 0.9f);
  pt::optim::SGD opt_b(0.05f, 0.9f);
  std::int64_t detect_step = -1;
  const std::int64_t heal_run_steps = std::max<std::int64_t>(steps, 12);
  for (std::int64_t i = 0; i < heal_run_steps; ++i) {
    const auto b = make_batch(batch, 1000 + static_cast<std::uint64_t>(i));
    clean.step(ctx, b, opt_a);
    victim.step(ctx, b, opt_b);
    if (monitor.due(victim.steps())) {
      const auto out = vote(monitor, victim, ctx);
      if (out.mismatch && detect_step < 0) detect_step = victim.steps();
    }
  }
  bool heal_bitwise = detect_step >= 0 && monitor.heals() == 1;
  for (int r = 0; r < replicas; ++r) {
    heal_bitwise =
        heal_bitwise && params_bitwise_equal(clean.replica(r), victim.replica(r));
  }
  const std::int64_t latency =
      detect_step >= 0 ? detect_step - inject_step : -1;
  std::cout << "  bitflip on replica 1 @ step " << inject_step
            << ", vote every " << check_interval << ": detected after "
            << latency << " step(s), healed "
            << pt::fmt(monitor.heal_bytes_total() / 1e6, 2) << " MB\n";
  std::cout << "  healed run bitwise == fault-free run: "
            << (heal_bitwise ? "yes" : "NO — HEAL FAILED") << "\n";

  // 2. Steady-state overhead: the same schedule with no monitor, then with
  // a digest vote every 1 / 4 / 16 steps (all votes unanimous — the cost
  // measured is the digest pass itself).
  auto time_with_interval = [&](std::int64_t interval) {
    pt::dist::ElasticCluster c(build_replicas(replicas), spec_for(replicas));
    pt::robust::IntegrityMonitor mon(interval);
    pt::optim::SGD opt(0.05f, 0.9f);
    for (int i = 0; i < 2; ++i) c.step(ctx, make_batch(batch, 7), opt);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < steps; ++i) {
      c.step(ctx, make_batch(batch, 100 + static_cast<std::uint64_t>(i)), opt);
      if (mon.due(c.steps())) (void)vote(mon, c, ctx);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count() /
           static_cast<double>(steps);
  };
  const double base_s = time_with_interval(0);  // interval 0: monitor off
  const std::vector<std::int64_t> intervals = {1, 4, 16};
  std::vector<double> interval_s, interval_pct;
  for (std::int64_t k : intervals) {
    const double s = time_with_interval(k);
    interval_s.push_back(s);
    interval_pct.push_back((s / base_s - 1.0) * 100.0);
  }
  std::cout << "  no monitor:      " << pt::fmt(base_s * 1e3, 2)
            << " ms/step\n";
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    std::cout << "  vote every " << intervals[i] << ":    "
              << pt::fmt(interval_s[i] * 1e3, 2) << " ms/step  ("
              << pt::fmt(interval_pct[i], 1) << "% digest overhead)\n";
  }

  // Modeled digest-exchange traffic for one vote at this topology.
  pt::graph::Network probe = build_model();
  const auto digest = pt::robust::compute_state_digest(probe, ctx);

  pt::telemetry::Json j = pt::telemetry::Json::object();
  j["schema"] = pt::telemetry::Json("pt-telemetry-bench");
  j["name"] = pt::telemetry::Json("sdc_overhead");
  j["model"] = pt::telemetry::Json("resnet8 w0.5 8x8");
  j["replicas"] = pt::telemetry::Json(static_cast<std::int64_t>(replicas));
  j["batch"] = pt::telemetry::Json(batch);
  j["steps"] = pt::telemetry::Json(steps);
  j["skipped"] = pt::telemetry::Json(false);
  j["heal_bitwise"] = pt::telemetry::Json(heal_bitwise);
  j["check_interval"] = pt::telemetry::Json(check_interval);
  j["inject_step"] = pt::telemetry::Json(inject_step);
  j["detect_step"] = pt::telemetry::Json(detect_step);
  j["detection_latency_steps"] = pt::telemetry::Json(latency);
  j["heal_bytes"] = pt::telemetry::Json(monitor.heal_bytes_total());
  j["digest_wire_bytes"] = pt::telemetry::Json(digest.wire_bytes());
  j["digest_tensors"] =
      pt::telemetry::Json(static_cast<std::int64_t>(digest.tensors.size()));
  j["baseline_seconds_per_step"] = pt::telemetry::Json(base_s);
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const std::string k = std::to_string(intervals[i]);
    j["digest_seconds_per_step_interval_" + k] =
        pt::telemetry::Json(interval_s[i]);
    j["digest_overhead_percent_interval_" + k] =
        pt::telemetry::Json(interval_pct[i]);
  }
  pt::telemetry::bench_export(j, flags.get("out"));
  std::cout << "  wrote " << flags.get("out") << "\n";
  return heal_bitwise ? 0 : 1;
}
