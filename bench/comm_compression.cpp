// Gradient-codec compression bench: real encoded wire bytes per exchange
// and wall-clock seconds per training step for every registered codec, at
// several pruned widths (fractions of channel rows zeroed, as group-lasso
// regularization leaves them before surgery removes them).
//
//   $ ./comm_compression [--steps N] [--batch N] [--out BENCH.json]
//
// Three sanity flags are written to BENCH_comm_compression.json and gated
// by run_bench_suite.sh:
//
//  1. dense_bitwise_reference: the dense codec's exchange must equal a
//     hand-rolled weighted-average loop (the pre-codec exchange) bit for
//     bit, over several randomized rounds.
//  2. convergence_within_tol: 2-replica training with the twobit codec
//     (error feedback on) must track the dense loss trajectory.
//  3. wire_reduction_4x: at the final pruned width, twobit and
//     live_channel must each ship >= 4x fewer bytes than dense at full
//     width — the Fig. 11 multiplicative saving measured on real encoded
//     payloads, not the analytical model.
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <vector>

#include "bench/common.h"
#include "dist/allreduce.h"
#include "dist/codec.h"
#include "dist/codec_zoo.h"
#include "dist/elastic.h"
#include "nn/loss.h"
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

void fill_grads(pt::graph::Network& net, std::uint64_t seed) {
  pt::Rng rng(seed);
  for (pt::nn::Param* p : net.params()) {
    Tensor r = Tensor::randn({p->grad.numel()}, rng);
    std::copy(r.data(), r.data() + r.numel(), p->grad.data());
  }
}

/// Zeroes the trailing (1 - live) fraction of channel rows of every >=2-D
/// parameter — the state group-lasso leaves channels in before surgery
/// removes them. Row 0 always survives (the min-channel floor).
void zero_dead_rows(pt::graph::Network& net, double live) {
  for (pt::nn::Param* p : net.params()) {
    if (p->value.shape().rank() < 2) continue;
    const std::int64_t rows = p->value.shape()[0];
    const std::int64_t row_len = p->value.numel() / rows;
    std::int64_t keep = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(rows) * live));
    if (keep < 1) keep = 1;
    std::fill(p->value.data() + keep * row_len,
              p->value.data() + rows * row_len, 0.f);
  }
}

/// Real encoded bytes for one 2-replica exchange at the given live width.
pt::dist::ExchangeStats measure_wire(const std::string& codec_name,
                                     double live) {
  std::vector<pt::graph::Network> nets = build_replicas(2);
  for (pt::graph::Network& net : nets) zero_dead_rows(net, live);
  auto codec = pt::dist::CodecRegistry::global().create(codec_name);
  codec->bind(nets[0], 2);
  fill_grads(nets[0], 40);
  fill_grads(nets[1], 41);
  return pt::dist::exchange_gradients(*codec, {&nets[0], &nets[1]}, {1.0, 1.0},
                                      pt::exec::ExecContext::serial());
}

double time_steps(const std::string& codec_name, std::int64_t steps,
                  std::int64_t batch) {
  pt::dist::ElasticCluster c(build_replicas(2), spec_for(2));
  c.set_codec(pt::dist::CodecRegistry::global().create(codec_name));
  pt::exec::ExecContext& ctx = pt::exec::ExecContext::serial();
  pt::optim::SGD opt(0.05f, 0.9f);
  for (int i = 0; i < 2; ++i) c.step(ctx, make_batch(batch, 7), opt);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < steps; ++i) {
    c.step(ctx, make_batch(batch, 100 + static_cast<std::uint64_t>(i)), opt);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() /
         static_cast<double>(steps);
}

/// The dense codec's exchange vs the pre-codec weighted-average loop,
/// bitwise, over several randomized rounds and weight vectors.
bool check_dense_reference() {
  pt::graph::Network a = build_model(), b = build_model();
  pt::dist::DenseCodec codec;
  codec.bind(a, 2);
  std::vector<pt::graph::Network*> nets{&a, &b};
  for (int round = 0; round < 3; ++round) {
    fill_grads(a, 300 + static_cast<std::uint64_t>(2 * round));
    fill_grads(b, 301 + static_cast<std::uint64_t>(2 * round));
    const std::vector<double> w = {1.0 + round, 1.0};
    const double total = w[0] + w[1];
    auto pa = a.params();
    auto pb = b.params();
    std::vector<std::vector<float>> expected;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      std::vector<float> avg(static_cast<std::size_t>(pa[i]->grad.numel()));
      for (std::int64_t q = 0; q < pa[i]->grad.numel(); ++q) {
        double acc = w[0] * static_cast<double>(pa[i]->grad.data()[q]) +
                     w[1] * static_cast<double>(pb[i]->grad.data()[q]);
        avg[static_cast<std::size_t>(q)] = static_cast<float>(acc / total);
      }
      expected.push_back(std::move(avg));
    }
    pt::dist::exchange_gradients(codec, nets, w,
                                 pt::exec::ExecContext::serial());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      if (std::memcmp(pa[i]->grad.data(), expected[i].data(),
                      sizeof(float) * expected[i].size()) != 0 ||
          std::memcmp(pb[i]->grad.data(), expected[i].data(),
                      sizeof(float) * expected[i].size()) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// 2-replica training: twobit with error feedback must track dense. A
/// fixed batch (memorization) gives a deterministic decreasing loss —
/// fresh random labels every step would leave nothing to learn.
bool check_convergence(std::int64_t batch, double* dense_loss,
                       double* twobit_loss) {
  const pt::data::Batch fixed = make_batch(batch, 900);
  auto run = [&](const std::string& name) {
    pt::dist::ElasticCluster c(build_replicas(2), spec_for(2));
    c.set_codec(pt::dist::CodecRegistry::global().create(name));
    pt::optim::SGD opt(0.05f, 0.9f);
    double first = 0, last = 0;
    for (int step = 0; step < 40; ++step) {
      const auto r = c.step(pt::exec::ExecContext::serial(), fixed, opt);
      if (step == 0) first = r.loss;
      last = r.loss;
    }
    return std::pair<double, double>(first, last);
  };
  const auto [dense_first, dense_last] = run("dense");
  const auto [twobit_first, twobit_last] = run("twobit");
  *dense_loss = dense_last;
  *twobit_loss = twobit_last;
  return twobit_last < twobit_first && dense_last < dense_first &&
         std::abs(twobit_last - dense_last) / dense_last < 0.5;
}

}  // namespace

int main(int argc, char** argv) {
  pt::CliFlags flags;
  flags.define("steps", "16", "timed steps per codec");
  flags.define("batch", "16", "global mini-batch size");
  flags.define("out", "BENCH_comm_compression.json",
               "output artifact path (BENCH_*.json format)");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("comm_compression");
    return 0;
  }
  const std::int64_t steps = flags.get_int("steps");
  const std::int64_t batch = flags.get_int("batch");
  const std::vector<double> widths = {1.0, 0.5, 0.25, 0.125};
  const std::vector<std::string> codecs =
      pt::dist::CodecRegistry::global().names();

  std::cout << "comm_compression: ResNet-8(w0.5)/8x8, 2 replicas, batch "
            << batch << "\n";

  // Wire bytes per exchange, per codec, per pruned width.
  std::map<std::string, std::vector<double>> wire;
  double dense_full = 0;
  for (const auto& name : codecs) {
    for (double live : widths) {
      const auto stats = measure_wire(name, live);
      wire[name].push_back(stats.wire_bytes);
      if (name == "dense" && live == 1.0) dense_full = stats.wire_bytes;
    }
  }
  std::cout << "  wire bytes per exchange (live width columns:";
  for (double w : widths) std::cout << " " << pt::fmt(w, 3);
  std::cout << ")\n";
  for (const auto& name : codecs) {
    std::cout << "    " << name << ":";
    for (double b : wire[name]) std::cout << " " << pt::fmt(b / 1e3, 1) << "KB";
    std::cout << "\n";
  }

  // Seconds per training step per codec (full width; encode/decode cost).
  std::map<std::string, double> sec_per_step;
  for (const auto& name : codecs) {
    sec_per_step[name] = time_steps(name, steps, batch);
    std::cout << "  " << name << ": "
              << pt::fmt(sec_per_step[name] * 1e3, 2) << " ms/step\n";
  }

  const bool dense_ref = check_dense_reference();
  std::cout << "  dense codec bitwise == pre-codec exchange: "
            << (dense_ref ? "yes" : "NO — REFERENCE VIOLATED") << "\n";

  double dense_loss = 0, twobit_loss = 0;
  const bool converges = check_convergence(batch, &dense_loss, &twobit_loss);
  std::cout << "  twobit convergence (40 steps): loss "
            << pt::fmt(twobit_loss, 4) << " vs dense " << pt::fmt(dense_loss, 4)
            << (converges ? "" : "  — OUT OF TOLERANCE") << "\n";

  // Fig. 11 multiplicative saving on real payloads: compressed bytes at
  // the final pruned width vs dense at full width.
  const double final_w = widths.back();
  const double twobit_final = wire["twobit"].back();
  const double live_final = wire["live_channel"].back();
  const double red_twobit = dense_full / twobit_final;
  const double red_live = dense_full / live_final;
  const bool reduction_ok = red_twobit >= 4.0 && red_live >= 4.0;
  std::cout << "  reduction vs dense@full at live width " << pt::fmt(final_w, 3)
            << ": twobit " << pt::fmt(red_twobit, 1) << "x, live_channel "
            << pt::fmt(red_live, 1) << "x"
            << (reduction_ok ? "" : "  — BELOW 4x") << "\n";

  pt::telemetry::Json j = pt::telemetry::Json::object();
  j["schema"] = pt::telemetry::Json("pt-telemetry-bench");
  j["name"] = pt::telemetry::Json("comm_compression");
  j["model"] = pt::telemetry::Json("resnet8 w0.5 8x8");
  j["replicas"] = pt::telemetry::Json(static_cast<std::int64_t>(2));
  j["batch"] = pt::telemetry::Json(batch);
  j["steps"] = pt::telemetry::Json(steps);
  j["skipped"] = pt::telemetry::Json(false);
  {
    pt::telemetry::Json w_arr = pt::telemetry::Json::array();
    for (double w : widths) w_arr.push_back(pt::telemetry::Json(w));
    j["live_widths"] = std::move(w_arr);
  }
  for (const auto& name : codecs) {
    pt::telemetry::Json arr = pt::telemetry::Json::array();
    for (double b : wire[name]) arr.push_back(pt::telemetry::Json(b));
    j["wire_bytes_" + name] = std::move(arr);
    j["seconds_per_step_" + name] = pt::telemetry::Json(sec_per_step[name]);
  }
  j["wire_reduction_twobit"] = pt::telemetry::Json(red_twobit);
  j["wire_reduction_live_channel"] = pt::telemetry::Json(red_live);
  j["dense_loss_40_steps"] = pt::telemetry::Json(dense_loss);
  j["twobit_loss_40_steps"] = pt::telemetry::Json(twobit_loss);
  j["dense_bitwise_reference"] = pt::telemetry::Json(dense_ref);
  j["convergence_within_tol"] = pt::telemetry::Json(converges);
  j["wire_reduction_4x"] = pt::telemetry::Json(reduction_ok);
  pt::telemetry::bench_export(j, flags.get("out"));
  std::cout << "  wrote " << flags.get("out") << "\n";
  return (dense_ref && converges && reduction_ok) ? 0 : 1;
}
