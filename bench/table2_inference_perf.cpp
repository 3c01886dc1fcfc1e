// Tab. 2 — inference throughput (images/s) of the dense baseline vs the
// PruneTrain-compressed model, at batch sizes 10 and 100.
//
// Both real single-core wall-clock throughput and modeled TITAN-Xp
// throughput are reported. Expected shape (paper): PruneTrain speedup is
// positive but *below* the FLOPs reduction (resource under-utilization at
// small layer sizes), and batch 100 utilizes hardware at least as well as
// batch 10.
#include <iostream>

#include "bench/common.h"
#include "cost/device.h"
#include "prune/materialize.h"
#include "util/logging.h"

using namespace pt;
using namespace pt::bench;

namespace {

double images_per_second(graph::Network& net, const data::SyntheticSpec& spec,
                         std::int64_t batch) {
  exec::ExecContext ctx(1);
  Rng rng(3);
  Tensor x = Tensor::randn({batch, spec.channels, spec.height, spec.width}, rng);
  net.forward(ctx, x, false);  // warm-up
  Timer t;
  int reps = 0;
  while (t.seconds() < 0.3) {
    net.forward(ctx, x, false);
    ++reps;
  }
  return double(reps) * double(batch) / t.seconds();
}

double modeled_images_per_second(graph::Network& net, const data::SyntheticSpec& spec,
                                 std::int64_t batch) {
  cost::DeviceModel dev(cost::DeviceSpec::titan_xp());
  const double t = dev.inference_time(
      net, {spec.channels, spec.height, spec.width}, batch);
  return double(batch) / t;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags = standard_flags(30);
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("table2_inference_perf");
    return 0;
  }
  const std::int64_t epochs = effective_epochs(flags);

  Table t({"model", "batch", "base img/s (cpu)", "pruned img/s (cpu)",
           "speedup", "modeled speedup*", "FLOPs kept", "val acc"});
  for (const char* model : {"resnet32", "resnet50", "vgg11", "vgg13"}) {
    const ProxyCase c = cifar_case(model, /*cifar100=*/true);
    data::SyntheticImageDataset ds(c.data);
    auto base = build_net(c);
    auto pruned = build_net(c);
    double val_acc = 0;
    {
      // Deep narrow proxies over-prune at strong ratios; 0.15 keeps the
      // model in the paper's accuracy regime.
      auto cfg = proxy_train_config(epochs, 0.15f, core::PrunePolicy::kPruneTrain);
      core::PruneTrainer trainer(pruned, ds, cfg);
      val_acc = trainer.run().final_test_acc;
    }
    // Deploy the way the serving runtime does: materialize the channel-union
    // inference form before measuring (prune::materialize_inference is the
    // shared deployment entry point).
    prune::materialize_inference(pruned, prune::InferenceForm::kChannelUnion);
    const Shape input{c.data.channels, c.data.height, c.data.width};
    const ModelCost cb = model_cost(base, input);
    const ModelCost cp = model_cost(pruned, input);
    for (std::int64_t batch : {10, 100}) {
      const double b_cpu = images_per_second(base, c.data, batch);
      const double p_cpu = images_per_second(pruned, c.data, batch);
      const double b_mod = modeled_images_per_second(base, c.data, batch);
      const double p_mod = modeled_images_per_second(pruned, c.data, batch);
      t.add_row({model, std::to_string(batch), fmt(b_cpu, 0), fmt(p_cpu, 0),
                 fmt(p_cpu / b_cpu, 2) + "x", fmt(p_mod / b_mod, 2) + "x",
                 fmt(cp.inference_flops / cb.inference_flops, 2),
                 fmt(val_acc, 3)});
    }
  }
  emit(t, flags, "Tab 2: inference throughput (* TITAN-Xp roofline model)");
  return 0;
}
