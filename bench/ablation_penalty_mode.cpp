// Ablation (Sec. 4.1) — global vs size-normalized group-lasso penalty.
//
// The paper argues for a single *global* penalty coefficient: early layers
// have fewer channels but larger feature maps, so a uniform per-group
// penalty preferentially removes the computation- and memory-expensive
// channels. Prior work instead scales each group's penalty with
// sqrt(group size), which targets parameter count. This bench trains the
// ResNet50 proxy both ways at the same Eq. 3 ratio and compares what each
// penalty actually buys: FLOPs, activation memory, parameters, accuracy.
//
// Expected shape: at a matched pruning budget, the global penalty removes
// at least as much computation/activation memory per removed parameter as
// the size-normalized penalty.
#include <iostream>

#include "bench/common.h"

using namespace pt;
using namespace pt::bench;

int main(int argc, char** argv) {
  CliFlags flags = standard_flags(36);
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("ablation_penalty_mode");
    return 0;
  }
  const std::int64_t epochs = effective_epochs(flags);
  const ProxyCase c = cifar_case("resnet50", false);
  data::SyntheticImageDataset ds(c.data);
  const Shape input{c.data.channels, c.data.height, c.data.width};

  Table t({"penalty", "ratio", "val acc", "inf FLOPs kept", "act. memory kept",
           "params kept"});

  // Dense reference for normalization.
  auto dense_net = build_net(c);
  const ModelCost dense = model_cost(dense_net, input);

  for (bool normalized : {false, true}) {
    for (float ratio : {0.2f, 0.3f}) {
      auto net = build_net(c);
      auto cfg = proxy_train_config(epochs, ratio, core::PrunePolicy::kPruneTrain);
      cfg.strategy_params["size_normalized"] = normalized ? "true" : "false";
      core::PruneTrainer trainer(net, ds, cfg);
      const auto r = trainer.run();
      const ModelCost pruned = model_cost(net, input);
      t.add_row({normalized ? "size-normalized" : "global (paper)", fmt(ratio, 2),
                 fmt(r.final_test_acc, 3),
                 fmt(r.final_inference_flops / dense.inference_flops, 3),
                 fmt(pruned.activation_bytes / dense.activation_bytes, 3),
                 fmt(pruned.params / dense.params, 3)});
    }
  }
  emit(t, flags, "Ablation: global vs size-normalized group-lasso penalty, " +
                     c.label);
  return 0;
}
