// Hot-path thread-scaling bench: one conv-heavy training step (forward,
// backward, SGD) on the exec::ExecContext pool at 1/2/4 threads.
//
//   $ ./hotpath_scaling [--steps N] [--batch N] [--out BENCH.json]
//
// Two things are measured and written to BENCH_hotpath_scaling.json:
//
//  1. Determinism (always, on any machine): the logits and every parameter
//     gradient of a 4-thread step must be bitwise-identical to a 1-thread
//     step — the exec API's core contract.
//  2. Scaling (only when the machine has >= 2 hardware threads): mean
//     seconds per training step at 1, 2, and 4 threads, and the speedup
//     over the serial baseline. Single-core runners skip the timing
//     honestly (skipped=true + reason) instead of reporting timeslicing
//     noise as scaling.
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "exec/context.h"
#include "nn/loss.h"
#include "optim/sgd.h"
#include "telemetry/bench_export.h"

namespace {

using pt::Tensor;

/// The conv-heavy proxy: a width-scaled ResNet-20 on CIFAR-shaped inputs,
/// the same model family quickstart trains.
pt::graph::Network build_model() {
  pt::models::ModelConfig cfg;
  cfg.image_h = 32;
  cfg.image_w = 32;
  cfg.classes = 10;
  cfg.width_mult = 0.5f;
  cfg.seed = 21;
  return pt::models::build_resnet_basic(20, cfg);
}

/// One training step: forward, loss, backward, SGD.
double train_step(pt::graph::Network& net, pt::exec::ExecContext& ctx,
                  const Tensor& images, const std::vector<std::int64_t>& labels,
                  pt::optim::SGD& opt) {
  net.zero_grad();
  pt::nn::SoftmaxCrossEntropy loss;
  Tensor out = net.forward(ctx, images, true);
  const double l = loss.forward(out, labels);
  net.backward(ctx, loss.backward());
  opt.step(net.params());
  return l;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

/// Runs one identical step on 1 and 4 threads and compares every output
/// bit. Returns true when they match.
bool check_determinism(const Tensor& images,
                       const std::vector<std::int64_t>& labels) {
  auto net1 = build_model();
  auto net4 = build_model();
  pt::exec::ExecContext ctx1(1);
  pt::exec::ExecContext ctx4(4);
  pt::optim::SGD opt1(0.1f), opt4(0.1f);
  const double l1 = train_step(net1, ctx1, images, labels, opt1);
  const double l4 = train_step(net4, ctx4, images, labels, opt4);
  if (l1 != l4) return false;
  auto p1 = net1.params();
  auto p4 = net4.params();
  if (p1.size() != p4.size()) return false;
  for (std::size_t i = 0; i < p1.size(); ++i) {
    if (!bitwise_equal(p1[i]->value, p4[i]->value)) return false;
    if (!bitwise_equal(p1[i]->grad, p4[i]->grad)) return false;
  }
  return true;
}

/// Mean seconds per step over `steps` timed steps (after 2 warm-up steps
/// that grow the workspace buffer to steady state).
double time_steps(int threads, std::int64_t steps, const Tensor& images,
                  const std::vector<std::int64_t>& labels) {
  auto net = build_model();
  pt::exec::ExecContext ctx(threads);
  pt::optim::SGD opt(0.1f);
  for (int i = 0; i < 2; ++i) train_step(net, ctx, images, labels, opt);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < steps; ++i) {
    train_step(net, ctx, images, labels, opt);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() /
         static_cast<double>(steps);
}

}  // namespace

int main(int argc, char** argv) {
  pt::CliFlags flags;
  flags.define("steps", "10", "timed training steps per thread count");
  flags.define("batch", "32", "mini-batch size (>= 4 so chunks stay busy)");
  flags.define("out", "BENCH_hotpath_scaling.json",
               "output artifact path (BENCH_*.json format)");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("hotpath_scaling");
    return 0;
  }
  const std::int64_t steps = flags.get_int("steps");
  const std::int64_t batch = flags.get_int("batch");

  pt::Rng rng(17);
  Tensor images = Tensor::randn({batch, 3, 32, 32}, rng);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(batch));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i) % 10;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const bool deterministic = check_determinism(images, labels);
  std::cout << "hotpath_scaling: ResNet-20(w0.5)/32x32, batch " << batch
            << ", " << steps << " steps, " << hw << " hardware thread(s)\n";
  std::cout << "  4-thread step bitwise == 1-thread step: "
            << (deterministic ? "yes" : "NO — DETERMINISM VIOLATED") << "\n";

  pt::telemetry::Json j = pt::telemetry::Json::object();
  j["schema"] = pt::telemetry::Json("pt-telemetry-bench");
  j["name"] = pt::telemetry::Json("hotpath_scaling");
  j["model"] = pt::telemetry::Json("resnet20 w0.5 32x32");
  j["batch"] = pt::telemetry::Json(batch);
  j["steps"] = pt::telemetry::Json(steps);
  j["hardware_threads"] = pt::telemetry::Json(static_cast<std::int64_t>(hw));
  j["determinism_bitwise_1_vs_4"] = pt::telemetry::Json(deterministic);

  const bool single_core = hw < 2;
  j["skipped"] = pt::telemetry::Json(single_core);
  if (single_core) {
    // Timeslicing one core across pool workers measures the scheduler, not
    // the pool: report the serial baseline only, flagged as skipped.
    j["skip_reason"] = pt::telemetry::Json(
        "single hardware thread: scaling timings would measure timeslicing, "
        "not parallel speedup (determinism still validated above)");
    const double s1 = time_steps(1, steps, images, labels);
    pt::telemetry::Json results = pt::telemetry::Json::array();
    pt::telemetry::Json row = pt::telemetry::Json::object();
    row["threads"] = pt::telemetry::Json(std::int64_t{1});
    row["seconds_per_step"] = pt::telemetry::Json(s1);
    row["speedup_vs_1"] = pt::telemetry::Json(1.0);
    results.push_back(row);
    j["results"] = results;
    std::cout << "  scaling: SKIPPED (single core); serial step "
              << pt::fmt(s1 * 1e3, 2) << " ms\n";
  } else {
    pt::telemetry::Json results = pt::telemetry::Json::array();
    double s1 = 0;
    double s4 = 0;
    pt::Table t({"threads", "ms/step", "speedup"});
    for (int threads : {1, 2, 4}) {
      const double s = time_steps(threads, steps, images, labels);
      if (threads == 1) s1 = s;
      if (threads == 4) s4 = s;
      pt::telemetry::Json row = pt::telemetry::Json::object();
      row["threads"] = pt::telemetry::Json(static_cast<std::int64_t>(threads));
      row["seconds_per_step"] = pt::telemetry::Json(s);
      row["speedup_vs_1"] = pt::telemetry::Json(s1 / s);
      results.push_back(row);
      t.add_row({std::to_string(threads), pt::fmt(s * 1e3, 2),
                 pt::fmt(s1 / s, 2) + "x"});
    }
    j["results"] = results;
    j["speedup_4_vs_1"] = pt::telemetry::Json(s1 / s4);
    t.print();
  }

  pt::telemetry::bench_export(j, flags.get("out"));
  std::cout << "  wrote " << flags.get("out") << "\n";
  return deterministic ? 0 : 1;
}
