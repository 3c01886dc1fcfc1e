// Fig. 7 — per-residual-block execution time of channel union vs channel
// gating for ResNet50 (ImageNet geometry), including gating's tensor-
// reshaping overhead.
//
// No training is needed: sparsity is synthesized by zeroing a deterministic
// random subset of channel groups at the rate the paper's trained models
// exhibit (~40-50%), then the same sparse model is materialized two ways
// (union-reconfigured vs gated) and timed per block on the roofline device
// model; real CPU forward times are reported as a cross-check.
//
// Expected shape (paper): union beats gating on every block; gating's
// reshape overhead is largest in early blocks (8x larger activations).
#include <iostream>

#include "bench/common.h"
#include "cost/device.h"
#include "nn/conv2d.h"
#include "prune/gating.h"
#include "prune/reconfigure.h"
#include "util/logging.h"

using namespace pt;
using namespace pt::bench;

namespace {

/// Zeroes ~`frac` of every conv's output channel groups (and matching
/// input channel groups of downstream convs are left to the union rule),
/// reproducing trained-model sparsity without training.
void synthesize_sparsity(graph::Network& net, double frac, std::uint64_t seed) {
  Rng rng(seed);
  for (int id : net.nodes_of_type<nn::Conv2d>()) {
    if (id == net.info.first_conv) continue;
    auto& conv = net.layer_as<nn::Conv2d>(id);
    const std::int64_t len = conv.in_channels() * conv.kernel() * conv.kernel();
    for (std::int64_t k = 0; k < conv.out_channels(); ++k) {
      if (rng.uniform() < frac && k + 1 < conv.out_channels()) {
        float* w = conv.weight().value.data() + k * len;
        for (std::int64_t q = 0; q < len; ++q) w[q] = 0.f;
      }
    }
    const std::int64_t rs = conv.kernel() * conv.kernel();
    for (std::int64_t c = 0; c < conv.in_channels(); ++c) {
      if (rng.uniform() < frac && c + 1 < conv.in_channels()) {
        for (std::int64_t k = 0; k < conv.out_channels(); ++k) {
          float* w = conv.weight().value.data() + (k * conv.in_channels() + c) * rs;
          for (std::int64_t q = 0; q < rs; ++q) w[q] = 0.f;
        }
      }
    }
  }
}

/// Sum of modeled times of the given nodes.
struct BlockTime {
  double conv_s = 0;
  double reshape_s = 0;
};

BlockTime block_time(const std::vector<cost::LayerTime>& times,
                     const graph::ResidualBlockInfo& blk, graph::Network& net) {
  BlockTime out;
  for (const auto& lt : times) {
    bool in_block = false;
    for (int id : blk.path_nodes) in_block |= lt.node == id;
    // Gating select/scatter nodes are appended after construction; match by
    // name prefix instead.
    for (int id : blk.path_convs) {
      const auto& name = net.node(id).layer ? net.node(id).layer->name() : "";
      if (!name.empty() && lt.name.rfind(name + ".gate", 0) == 0) in_block = true;
    }
    if (!in_block) continue;
    out.conv_s += lt.forward_s;
    out.reshape_s += lt.reshape_s;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags = standard_flags(0);
  flags.define("width", "0.5", "ResNet50 width multiplier");
  flags.define("sparsity", "0.45", "fraction of channel groups zeroed");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("fig7_union_vs_gating_time");
    return 0;
  }
  const float width = static_cast<float>(flags.get_double("width"));
  const double sparsity = flags.get_double("sparsity");

  models::ModelConfig mc;
  mc.image_h = 32;
  mc.image_w = 32;
  mc.classes = 16;
  mc.width_mult = width;
  mc.seed = 77;

  auto make_pruned = [&](bool gated) {
    auto net = models::build_resnet50(mc, /*imagenet_stem=*/true);
    synthesize_sparsity(net, sparsity, 99);
    prune::Reconfigurer rec(net, 1e-4f);
    rec.reconfigure();
    if (gated) prune::apply_channel_gating(net, 1e-4f);
    return net;
  };
  auto union_net = make_pruned(false);
  auto gated_net = make_pruned(true);

  const Shape input{3, 32, 32};
  const std::int64_t batch = 32;
  cost::DeviceModel dev(cost::DeviceSpec::v100());
  const auto t_union = dev.layer_times(union_net, input, batch, false);
  const auto t_gated = dev.layer_times(gated_net, input, batch, false);

  Table t({"block", "conv (U) us", "conv (G) us", "reshape (G) us",
           "speedup U over G"});
  for (std::size_t b = 0; b < union_net.info.blocks.size(); ++b) {
    const auto& blk_u = union_net.info.blocks[b];
    const auto& blk_g = gated_net.info.blocks[b];
    if (blk_u.removed || blk_g.removed) continue;
    const BlockTime u = block_time(t_union, blk_u, union_net);
    const BlockTime g = block_time(t_gated, blk_g, gated_net);
    const double ut = u.conv_s;
    const double gt = g.conv_s + g.reshape_s;
    t.add_row({std::to_string(b + 1), fmt(ut * 1e6, 2), fmt(g.conv_s * 1e6, 2),
               fmt(g.reshape_s * 1e6, 2), fmt(gt / ut, 2)});
  }
  emit(t, flags,
       "Fig 7: per-block modeled time (V100 roofline), union vs gating, "
       "ResNet50-ImageNet proxy");

  // Cross-check with real single-core forward wall time.
  Rng rng(5);
  Tensor x = Tensor::randn({batch, 3, 32, 32}, rng);
  exec::ExecContext ctx(1);
  auto time_net = [&](graph::Network& net) {
    net.forward(ctx, x, false);  // warm-up
    Timer timer;
    for (int i = 0; i < 3; ++i) net.forward(ctx, x, false);
    return timer.seconds() / 3.0;
  };
  Table w({"scheme", "forward wall time (ms)"});
  w.add_row({"channel union", fmt(time_net(union_net) * 1e3, 2)});
  w.add_row({"channel gating", fmt(time_net(gated_net) * 1e3, 2)});
  emit(w, flags, "Fig 7 (cross-check): measured CPU forward time");
  return 0;
}
