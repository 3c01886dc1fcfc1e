// Elastic-membership bench: is an all-healthy elastic step the textbook
// data-parallel step, what does a step cost, and what does a
// failure/rejoin cycle cost in modeled resync traffic?
//
//   $ ./elastic_overhead [--steps N] [--batch N] [--replicas N] [--out BENCH.json]
//
// Three things are measured and written to BENCH_elastic_overhead.json:
//
//  1. Equivalence (always, on any machine): with nobody failing, an
//     ElasticCluster step must be bitwise-identical to a hand-rolled
//     reference step (contiguous shards, weighted double accumulation in
//     rank order, the same SGD) — membership tracking is bookkeeping, never
//     numerics. Reported as determinism_bitwise_elastic_vs_reference
//     (run_bench_suite.sh fails the suite when it is false).
//  2. Steady state: mean seconds per all-healthy elastic step on 1 and on
//     2 threads (where the replicas' shards run concurrently on lanes),
//     and whether the two runs end with bitwise-equal parameters —
//     determinism_bitwise_threads, also a suite gate.
//  3. Churn cost: a kill at 1/3 of the run and a rejoin at 2/3 — live-ring
//     comm bytes before/during/after, plus the resync bytes the rejoiner
//     pulls (the modeled price of elasticity).
#include <chrono>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "bench/reference_step.h"
#include "dist/elastic.h"
#include "optim/sgd.h"
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

/// All-healthy elastic steps must be the reference steps, bit for bit:
/// same loss, same correct count, same parameters.
bool check_equivalence(int replicas, std::int64_t batch) {
  pt::exec::ExecContext ctx(1);
  std::vector<pt::graph::Network> reference = build_replicas(replicas);
  pt::dist::ElasticCluster elastic(build_replicas(replicas),
                                   spec_for(replicas));
  pt::optim::SGD opt_a(0.05f, 0.9f);
  pt::optim::SGD opt_b(0.05f, 0.9f);
  for (int step = 0; step < 3; ++step) {
    const auto b = make_batch(batch, 1000 + static_cast<std::uint64_t>(step));
    const auto ref = pt::bench::reference_step(reference, b, opt_a);
    const auto got = elastic.step(ctx, b, opt_b);
    if (ref.loss != got.loss || ref.correct != got.correct) return false;
  }
  for (int r = 0; r < replicas; ++r) {
    if (!params_bitwise_equal(reference[static_cast<std::size_t>(r)],
                              elastic.replica(r))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pt::CliFlags flags;
  flags.define("steps", "24", "timed steps per cluster variant");
  flags.define("batch", "16", "global mini-batch size");
  flags.define("replicas", "4", "simulated data-parallel replicas");
  flags.define("out", "BENCH_elastic_overhead.json",
               "output artifact path (BENCH_*.json format)");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("elastic_overhead");
    return 0;
  }
  const std::int64_t steps = flags.get_int("steps");
  const std::int64_t batch = flags.get_int("batch");
  const int replicas = static_cast<int>(flags.get_int("replicas"));

  const bool equivalent = check_equivalence(replicas, batch);
  std::cout << "elastic_overhead: ResNet-8(w0.5)/8x8, " << replicas
            << " replicas, batch " << batch << ", " << steps << " steps\n";
  std::cout << "  all-healthy elastic step bitwise == reference step: "
            << (equivalent ? "yes" : "NO — DETERMINISM VIOLATED") << "\n";

  // Steady state: same replicas, same batches, nobody failing, on 1 and 2
  // threads; returns seconds per step and leaves the trained cluster.
  auto time_steps = [&](pt::dist::ElasticCluster& c, int threads) {
    pt::exec::ExecContext tctx(threads);
    pt::optim::SGD opt(0.05f, 0.9f);
    for (int i = 0; i < 2; ++i) c.step(tctx, make_batch(batch, 7), opt);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < steps; ++i) {
      c.step(tctx, make_batch(batch, 100 + static_cast<std::uint64_t>(i)), opt);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count() /
           static_cast<double>(steps);
  };
  pt::dist::ElasticCluster serial(build_replicas(replicas), spec_for(replicas));
  pt::dist::ElasticCluster parallel(build_replicas(replicas),
                                    spec_for(replicas));
  const double elastic_s = time_steps(serial, 1);
  const double elastic_s_t2 = time_steps(parallel, 2);
  bool same_bits = true;
  for (int r = 0; r < replicas; ++r) {
    same_bits = same_bits &&
                params_bitwise_equal(serial.replica(r), parallel.replica(r));
  }
  std::cout << "  elastic cluster: " << pt::fmt(elastic_s * 1e3, 2)
            << " ms/step on 1 thread, " << pt::fmt(elastic_s_t2 * 1e3, 2)
            << " ms/step on 2 threads; params bitwise equal: "
            << (same_bits ? "yes" : "NO — DETERMINISM VIOLATED") << "\n";

  // Churn: kill one replica at steps/3, rejoin it at 2*steps/3; track the
  // live-ring comm bytes and the fenced resync traffic.
  pt::dist::MembershipConfig mc;
  mc.suspect_threshold = 1;
  mc.min_live_fraction = 1.0 / static_cast<double>(replicas);
  pt::dist::ElasticCluster churn(build_replicas(replicas), spec_for(replicas),
                                 mc);
  const std::int64_t kill_at = steps / 3;
  const std::int64_t rejoin_at = 2 * steps / 3;
  pt::exec::ExecContext ctx(1);
  churn.schedule_departure(replicas - 1, kill_at);
  churn.schedule_rejoin(replicas - 1, rejoin_at);
  pt::optim::SGD opt(0.05f, 0.9f);
  double bytes_full = 0;
  double bytes_degraded = 0;
  for (std::int64_t i = 0; i < steps; ++i) {
    const auto r = churn.step(
        ctx, make_batch(batch, 500 + static_cast<std::uint64_t>(i)), opt);
    if (r.live_replicas == replicas) {
      bytes_full += r.comm_bytes_per_gpu;
    } else {
      bytes_degraded += r.comm_bytes_per_gpu;
    }
  }
  std::cout << "  churn run: kill@" << kill_at << " rejoin@" << rejoin_at
            << ", resync " << pt::fmt(churn.resync_bytes_total() / 1e6, 2)
            << " MB, comm " << pt::fmt((bytes_full + bytes_degraded) / 1e6, 2)
            << " MB total\n";

  pt::telemetry::Json j = pt::telemetry::Json::object();
  j["schema"] = pt::telemetry::Json("pt-telemetry-bench");
  j["name"] = pt::telemetry::Json("elastic_overhead");
  j["model"] = pt::telemetry::Json("resnet8 w0.5 8x8");
  j["replicas"] = pt::telemetry::Json(static_cast<std::int64_t>(replicas));
  j["batch"] = pt::telemetry::Json(batch);
  j["steps"] = pt::telemetry::Json(steps);
  j["determinism_bitwise_elastic_vs_reference"] =
      pt::telemetry::Json(equivalent);
  j["skipped"] = pt::telemetry::Json(false);
  j["determinism_bitwise_threads"] = pt::telemetry::Json(same_bits);
  j["elastic_seconds_per_step"] = pt::telemetry::Json(elastic_s);
  j["elastic_seconds_per_step_t2"] = pt::telemetry::Json(elastic_s_t2);
  j["churn_kill_step"] = pt::telemetry::Json(kill_at);
  j["churn_rejoin_step"] = pt::telemetry::Json(rejoin_at);
  j["churn_resync_bytes"] = pt::telemetry::Json(
      static_cast<std::int64_t>(churn.resync_bytes_total()));
  j["churn_comm_bytes_full_ring"] = pt::telemetry::Json(bytes_full);
  j["churn_comm_bytes_degraded_ring"] = pt::telemetry::Json(bytes_degraded);
  pt::telemetry::bench_export(j, flags.get("out"));
  std::cout << "  wrote " << flags.get("out") << "\n";
  return equivalent && same_bits ? 0 : 1;
}
