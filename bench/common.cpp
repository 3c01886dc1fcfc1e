#include "bench/common.h"

#include <charconv>
#include <iostream>
#include <stdexcept>

#include "cost/flops.h"
#include "cost/memory.h"

namespace pt::bench {

ModelCost model_cost(graph::Network& net, const Shape& input,
                     std::int64_t batch) {
  const cost::FlopsModel flops(net, input);
  const cost::MemoryModel mem(net, input);
  ModelCost c;
  c.inference_flops = flops.inference_flops();
  c.training_flops = flops.training_flops();
  c.activation_bytes = mem.breakdown().activations_per_sample;
  c.memory_bytes = mem.training_bytes(batch);
  c.bn_traffic_per_sample = mem.bn_traffic_per_sample();
  c.params = static_cast<double>(net.num_params());
  return c;
}

ProxyCase cifar_case(const std::string& model, bool cifar100) {
  ProxyCase c;
  c.model = model;
  c.data = cifar100 ? data::SyntheticSpec::cifar100_like()
                    : data::SyntheticSpec::cifar10_like();
  if (model == "resnet50") {
    c.width_mult = 0.0625f;
  } else if (model == "vgg11" || model == "vgg13") {
    c.width_mult = 0.125f;
  } else {
    c.width_mult = 0.25f;
  }
  c.label = model + "/" + c.data.name;
  return c;
}

ProxyCase imagenet_case() {
  ProxyCase c;
  c.model = "resnet50-imagenet";
  c.width_mult = 0.0625f;
  c.data = data::SyntheticSpec::imagenet_like();
  c.label = "resnet50/" + c.data.name;
  return c;
}

graph::Network build_net(const ProxyCase& c, std::uint64_t seed) {
  models::ModelConfig cfg;
  cfg.in_channels = c.data.channels;
  cfg.image_h = c.data.height;
  cfg.image_w = c.data.width;
  cfg.classes = c.data.classes;
  cfg.width_mult = c.width_mult;
  cfg.seed = seed;
  return models::build_by_name(c.model, cfg);
}

core::TrainConfig proxy_train_config(std::int64_t epochs, float ratio,
                                     core::PrunePolicy policy) {
  core::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 64;
  cfg.base_lr = 0.1f;
  cfg.lr_milestones = {epochs / 2, (3 * epochs) / 4};
  cfg.policy = policy;
  // The canonical proxy time-compression factor (see DESIGN.md).
  cfg.strategy_params["boost"] = "150";
  // Dense baselines pass ratio 0 (no lasso term) and keep the registry
  // default — the dense policy never reads it. to_chars gives the shortest
  // text that parses back to exactly `ratio`.
  if (ratio > 0.f) {
    char buf[32];
    cfg.strategy_params["ratio"] =
        std::string(buf, std::to_chars(buf, buf + sizeof(buf), ratio).ptr);
  }
  cfg.reconfig_interval = std::max<std::int64_t>(2, epochs / 6);
  cfg.one_shot_epoch = epochs / 2;
  cfg.eval_interval = 5;
  return cfg;
}

CliFlags standard_flags(std::int64_t default_epochs) {
  CliFlags flags;
  flags.define("epochs", std::to_string(default_epochs),
               "training epochs per run");
  flags.define("quick", "false", "halve epochs for a fast smoke run");
  flags.define("csv", "", "also write results to this CSV file");
  return flags;
}

std::int64_t effective_epochs(const CliFlags& flags) {
  std::int64_t epochs = flags.get_int("epochs");
  if (flags.get_bool("quick")) epochs = std::max<std::int64_t>(10, epochs / 2);
  return epochs;
}

void emit(const Table& table, const CliFlags& flags, const std::string& name) {
  std::cout << "== " << name << " ==\n";
  table.print(flags.get("csv"));
  std::cout << std::endl;
}

}  // namespace pt::bench
