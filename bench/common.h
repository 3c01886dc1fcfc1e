// Shared proxy-scale experiment definitions for the benchmark harness.
//
// Every bench reproduces one table or figure of the paper at *proxy scale*:
// the same architectures (width-scaled), the same training protocol
// (SGD+momentum, multi-step LR decay, Eq. 3 lambda with the documented
// time-compression boost), and synthetic stand-ins for CIFAR-10/100 and
// ImageNet (see DESIGN.md). The canonical cases here keep all benches
// consistent with each other and with the test suite.
#pragma once

#include <string>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "models/builders.h"
#include "util/cli.h"
#include "util/table.h"

namespace pt::bench {

/// One model-on-dataset proxy experiment.
struct ProxyCase {
  std::string label;           ///< e.g. "ResNet32/SynthCIFAR10"
  std::string model;           ///< builder name
  float width_mult = 0.25f;
  data::SyntheticSpec data;
};

/// Canonical proxies for the paper's CIFAR experiments.
/// Models: resnet20/32/56 at width 0.25, resnet50 at width 0.0625,
/// vgg11/13 at width 0.125 — sized for single-core training.
ProxyCase cifar_case(const std::string& model, bool cifar100);

/// Canonical proxy for ResNet50-on-ImageNet: ImageNet-stem bottleneck
/// ResNet at width 0.0625 on the 16x16 SynthImageNet dataset.
ProxyCase imagenet_case();

/// Builds the network for a case.
graph::Network build_net(const ProxyCase& c, std::uint64_t seed = 21);

/// Model cost through the shared cost:: entry points — the one way bench
/// drivers read a model's cost (no per-driver FLOP arithmetic).
struct ModelCost {
  double inference_flops = 0;        ///< per sample
  double training_flops = 0;         ///< per sample, fwd + bwd
  double activation_bytes = 0;       ///< stored forward outputs, per sample
  double memory_bytes = 0;           ///< training context at `batch`
  double bn_traffic_per_sample = 0;  ///< DRAM bytes per sample
  double params = 0;                 ///< parameter scalars
};

ModelCost model_cost(graph::Network& net, const Shape& input,
                     std::int64_t batch = 64);

/// Canonical training protocol for proxy runs: `epochs` epochs with LR
/// decays at 50% and 75%, batch 64, lr 0.1, reconfiguration every
/// `epochs/6` epochs, Eq. 3 ratio `ratio` (0 = registry default) with the
/// canonical lasso boost 150.
core::TrainConfig proxy_train_config(std::int64_t epochs, float ratio,
                                     core::PrunePolicy policy);

/// Standard bench CLI: --epochs, --quick, --csv. Returns configured flags.
CliFlags standard_flags(std::int64_t default_epochs);

/// Epochs after applying --quick (halves epochs, min 10).
std::int64_t effective_epochs(const CliFlags& flags);

/// Prints a table plus an optional CSV (path from --csv, "" = none).
void emit(const Table& table, const CliFlags& flags, const std::string& name);

}  // namespace pt::bench
