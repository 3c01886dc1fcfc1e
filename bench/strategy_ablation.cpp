// Sparsifier-zoo ablation: every registered prune::Strategy on the same
// proxy task, protocol, and seed — what does each one cost and buy?
//
//   $ ./strategy_ablation [--epochs N] [--quick] [--out BENCH.json]
//
// For each strategy in the registry (group_lasso, dst, channel_prop)
// this runs the canonical proxy ResNet-8(w0.5)/8x8 protocol with the same
// aggressive parameters the conformance suite uses, and reports:
//
//  - the loss proxy (final train loss + final test accuracy),
//  - the FLOPs trajectory (per-epoch training FLOPs/sample) and the
//    inference FLOPs kept at the end,
//  - wall-clock seconds per epoch,
//  - `strategy_resume_bitwise`: a mid-run checkpoint resume replayed into a
//    fresh network must reproduce the uninterrupted run bit for bit —
//    serialized strategy state (thresholds, saliency) included.
//    run_bench_suite.sh fails the suite when this flag is false.
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/common.h"
#include "prune/strategy.h"
#include "telemetry/bench_export.h"

namespace fs = std::filesystem;

namespace {

pt::data::SyntheticSpec ablation_data() {
  pt::data::SyntheticSpec spec;
  spec.name = "tiny";
  spec.classes = 8;
  spec.channels = 3;
  spec.height = 8;
  spec.width = 8;
  spec.train_samples = 256;
  spec.test_samples = 128;
  spec.noise = 0.8f;
  spec.max_shift = 2;
  spec.seed = 5;
  return spec;
}

pt::graph::Network ablation_net() {
  pt::models::ModelConfig mc;
  mc.image_h = 8;
  mc.image_w = 8;
  mc.classes = 8;
  mc.width_mult = 0.5f;
  mc.seed = 21;
  return pt::models::build_resnet_basic(8, mc);
}

/// The conformance suite's parameters: aggressive enough that every
/// strategy visibly acts within a short proxy run.
std::map<std::string, std::string> ablation_params(const std::string& name) {
  if (name == "group_lasso") return {{"ratio", "0.3"}, {"boost", "2000"}};
  if (name == "dst") {
    return {{"alpha", "2"}, {"threshold_lr", "0.1"}, {"beta", "1"},
            {"init", "0.05"}};
  }
  if (name == "channel_prop") {
    return {{"decay", "0.5"}, {"prune_fraction", "0.5"}, {"warmup", "1"}};
  }
  return {};
}

pt::core::TrainConfig ablation_cfg(const std::string& strategy,
                                   std::int64_t epochs) {
  pt::core::TrainConfig cfg;
  cfg.policy = pt::core::PrunePolicy::kPruneTrain;
  cfg.strategy = strategy;
  cfg.strategy_params = ablation_params(strategy);
  cfg.epochs = epochs;
  cfg.batch_size = 64;
  cfg.base_lr = 0.1f;
  cfg.weight_decay = 1e-4f;
  cfg.lr_milestones = {epochs / 2, 3 * epochs / 4};
  cfg.reconfig_interval = std::max<std::int64_t>(2, epochs / 3);
  cfg.eval_interval = 2;
  return cfg;
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

struct StrategyRun {
  pt::core::TrainResult result;
  double seconds_per_epoch = 0;
  bool resume_bitwise = false;
};

StrategyRun run_strategy(const std::string& name, std::int64_t epochs) {
  auto data = pt::data::SyntheticImageDataset(ablation_data());
  const fs::path dir =
      fs::temp_directory_path() /
      ("pt_strategy_ablation_" + name + "_" + std::to_string(getpid()));
  fs::remove_all(dir);

  StrategyRun out;
  pt::core::TrainConfig cfg = ablation_cfg(name, epochs);
  cfg.checkpoint_dir = dir.string();
  pt::graph::Network full_net = ablation_net();
  pt::core::PruneTrainer full(full_net, data, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  out.result = full.run();
  out.seconds_per_epoch =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() /
      static_cast<double>(epochs);

  // Mid-run resume into a fresh dense network: the replayed tail must land
  // on the uninterrupted run's weights exactly.
  pt::core::TrainConfig rcfg = ablation_cfg(name, epochs);
  rcfg.resume_from =
      (dir / ("ckpt-epoch-" + std::to_string(epochs / 2) + ".bin")).string();
  pt::graph::Network res_net = ablation_net();
  pt::core::PruneTrainer resumed(res_net, data, rcfg);
  const pt::core::TrainResult r_res = resumed.run();
  out.resume_bitwise =
      params_bitwise_equal(full_net, res_net) &&
      r_res.final_test_acc == out.result.final_test_acc &&
      r_res.final_channels == out.result.final_channels;

  fs::remove_all(dir);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  pt::CliFlags flags;
  flags.define("epochs", "12", "proxy epochs per strategy");
  flags.define("quick", "false", "halve the epochs for a fast smoke run");
  flags.define("out", "BENCH_strategy_ablation.json",
               "output artifact path (BENCH_*.json format)");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("strategy_ablation");
    return 0;
  }
  std::int64_t epochs = flags.get_int("epochs");
  if (flags.get_bool("quick")) epochs = std::max<std::int64_t>(6, epochs / 2);

  const std::vector<std::string> names =
      pt::prune::StrategyRegistry::global().names();
  std::cout << "strategy_ablation: ResNet-8(w0.5)/8x8, " << epochs
            << " epochs, " << names.size() << " strategies\n";

  pt::Table table({"strategy", "final loss", "test acc", "inf FLOPs kept %",
                   "channels", "sec/epoch", "resume bitwise"});
  pt::telemetry::Json strategies = pt::telemetry::Json::object();
  bool all_resume_bitwise = true;
  for (const std::string& name : names) {
    const StrategyRun run = run_strategy(name, epochs);
    const auto& first = run.result.epochs.front();
    const auto& last = run.result.epochs.back();
    const double flops_kept =
        100.0 * run.result.final_inference_flops / first.flops_per_sample_inf;
    all_resume_bitwise = all_resume_bitwise && run.resume_bitwise;

    table.add_row({name, pt::fmt(last.train_loss, 4),
                   pt::fmt(run.result.final_test_acc, 3),
                   pt::fmt(flops_kept, 1),
                   std::to_string(run.result.final_channels),
                   pt::fmt(run.seconds_per_epoch, 3),
                   run.resume_bitwise ? "yes" : "NO"});

    pt::telemetry::Json s = pt::telemetry::Json::object();
    s["final_train_loss"] = pt::telemetry::Json(last.train_loss);
    s["final_reg_loss"] = pt::telemetry::Json(last.lasso_loss);
    s["final_test_acc"] = pt::telemetry::Json(run.result.final_test_acc);
    s["final_channels"] =
        pt::telemetry::Json(static_cast<std::int64_t>(run.result.final_channels));
    s["inference_flops_kept_percent"] = pt::telemetry::Json(flops_kept);
    s["seconds_per_epoch"] = pt::telemetry::Json(run.seconds_per_epoch);
    s["resume_bitwise"] = pt::telemetry::Json(run.resume_bitwise);
    pt::telemetry::Json trajectory = pt::telemetry::Json::array();
    for (const auto& es : run.result.epochs) {
      trajectory.push_back(pt::telemetry::Json(es.flops_per_sample_train));
    }
    s["train_flops_per_sample_trajectory"] = trajectory;
    strategies[name] = s;
  }
  table.print();

  pt::telemetry::Json j = pt::telemetry::Json::object();
  j["schema"] = pt::telemetry::Json("pt-telemetry-bench");
  j["name"] = pt::telemetry::Json("strategy_ablation");
  j["model"] = pt::telemetry::Json("resnet8 w0.5 8x8");
  j["epochs"] = pt::telemetry::Json(epochs);
  j["strategy_resume_bitwise"] = pt::telemetry::Json(all_resume_bitwise);
  j["skipped"] = pt::telemetry::Json(false);
  j["strategies"] = strategies;
  pt::telemetry::bench_export(j, flags.get("out"));
  std::cout << "  strategy state resume bitwise (all strategies): "
            << (all_resume_bitwise ? "yes" : "NO — DETERMINISM VIOLATED")
            << "\n  wrote " << flags.get("out") << "\n";
  return all_resume_bitwise ? 0 : 1;
}
