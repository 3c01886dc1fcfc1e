// Regularization-strength sweep: the workflow of Sec. 5.2 / Fig. 8.
//
//   $ ./cifar_pruning_sweep [--model resnet20|resnet32|resnet50|vgg11|...]
//
// Trains the same architecture at several lasso penalty ratios (plus the
// dense baseline) on the synthetic CIFAR-100 stand-in and prints the
// accuracy / inference-cost / training-cost tradeoff table a practitioner
// would use to pick an operating point.
#include <iostream>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "models/builders.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  pt::CliFlags flags;
  flags.define("model", "resnet20", "architecture to sweep");
  flags.define("epochs", "30", "training epochs per point");
  flags.define("width", "0.25", "width multiplier");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("cifar_pruning_sweep");
    return 0;
  }
  const std::int64_t epochs = flags.get_int("epochs");

  pt::data::SyntheticImageDataset dataset(
      pt::data::SyntheticSpec::cifar100_like());
  pt::models::ModelConfig model_cfg;
  model_cfg.image_h = dataset.spec().height;
  model_cfg.image_w = dataset.spec().width;
  model_cfg.classes = dataset.spec().classes;
  model_cfg.width_mult = static_cast<float>(flags.get_double("width"));

  // `ratio` is the Eq. 3 target; "" keeps the registry default (the dense
  // baseline never reads it).
  auto run = [&](const std::string& ratio, pt::core::PrunePolicy policy) {
    auto net = pt::models::build_by_name(flags.get("model"), model_cfg);
    pt::core::TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.batch_size = 64;
    cfg.base_lr = 0.1f;
    cfg.lr_milestones = {epochs / 2, 3 * epochs / 4};
    cfg.policy = policy;
    if (!ratio.empty()) cfg.strategy_params["ratio"] = ratio;
    cfg.strategy_params["boost"] = "150";
    cfg.reconfig_interval = std::max<std::int64_t>(2, epochs / 6);
    cfg.eval_interval = 5;
    pt::core::PruneTrainer trainer(net, dataset, cfg);
    return trainer.run();
  };

  pt::Table t({"ratio", "test acc", "inference MFLOPs", "training GFLOPs",
               "BN traffic GB", "channels", "layers removed"});
  const auto dense = run("", pt::core::PrunePolicy::kDense);
  t.add_row({"dense", pt::fmt(dense.final_test_acc, 3),
             pt::fmt(dense.final_inference_flops / 1e6, 3),
             pt::fmt(dense.total_train_flops / 1e9, 2),
             pt::fmt(dense.total_bn_traffic / 1e9, 2),
             std::to_string(dense.final_channels), "0"});
  for (const std::string ratio : {"0.1", "0.2", "0.3", "0.4"}) {
    const auto r = run(ratio, pt::core::PrunePolicy::kPruneTrain);
    t.add_row({pt::fmt(std::stod(ratio), 2), pt::fmt(r.final_test_acc, 3),
               pt::fmt(r.final_inference_flops / 1e6, 3),
               pt::fmt(r.total_train_flops / 1e9, 2),
               pt::fmt(r.total_bn_traffic / 1e9, 2),
               std::to_string(r.final_channels),
               std::to_string(r.layers_removed)});
  }
  std::cout << flags.get("model") << " on " << dataset.spec().name << ":\n";
  t.print();
  return 0;
}
