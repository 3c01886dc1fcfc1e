#include "cost/memory.h"

#include <algorithm>

#include "cost/flops.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"

namespace pt::cost {

namespace {
constexpr double kBytes = 4.0;  // float32
}

MemoryModel::MemoryModel(graph::Network& net, Shape input,
                         const exec::ExecContext* ctx, int replicas)
    : replicas_(std::max(1, replicas)) {
  if (ctx != nullptr) threads_ = ctx->num_threads();
  Shape batched({1, input[0], input[1], input[2]});
  const auto shapes = infer_shapes(net, batched);
  for (int id : net.topo_order()) {
    if (id == 0) continue;
    const graph::Node& n = net.node(id);
    const Shape& out = shapes[static_cast<std::size_t>(id)];
    // Every node output is held for backward (including adds, whose output
    // feeds the next block's layers).
    breakdown_.activations_per_sample += static_cast<double>(out.numel()) * kBytes;
    if (n.kind != graph::Node::Kind::kLayer) continue;
    for (nn::Param* p : n.layer->params()) {
      breakdown_.parameters += static_cast<double>(p->value.numel()) * kBytes;
      breakdown_.optimizer_state +=
          2.0 * static_cast<double>(p->value.numel()) * kBytes;
    }
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(n.layer.get())) {
      const Shape& in = shapes[static_cast<std::size_t>(n.inputs[0])];
      ConvGeom g{conv->in_channels(), in[2], in[3], conv->kernel(), conv->stride(),
                 conv->pad()};
      convs_.push_back({g, conv->out_channels()});
    }
    if (dynamic_cast<const nn::BatchNorm2d*>(n.layer.get()) != nullptr) {
      const Shape& in = shapes[static_cast<std::size_t>(n.inputs[0])];
      bn_traffic_per_sample_ += 7.0 * static_cast<double>(in.numel()) * kBytes;
    }
  }
}

double MemoryModel::workspace_bytes(std::int64_t batch) const {
  // Largest conv scratch of one shard of n samples on `threads` threads.
  auto peak = [&](std::int64_t n, int threads) {
    std::size_t floats = 0;
    for (const ConvLowering& c : convs_) {
      floats = std::max(floats, nn::Conv2d::workspace_floats(
                                    c.geom, c.out_channels, n, threads));
    }
    return floats;
  };
  // The elastic step's shards (dist/elastic.h): participant i of R takes
  // batch/R + (i < batch%R) samples; empty shards compute nothing.
  std::vector<std::int64_t> shards;
  for (int i = 0; i < replicas_; ++i) {
    const std::int64_t n = batch / replicas_ + (i < batch % replicas_ ? 1 : 0);
    if (n > 0) shards.push_back(n);
  }
  const std::int64_t k = static_cast<std::int64_t>(shards.size());
  const std::int64_t lanes = std::min<std::int64_t>(threads_, k);
  std::size_t floats = 0;
  if (lanes < 2) {
    for (std::int64_t n : shards) floats = std::max(floats, peak(n, threads_));
  } else {
    // Lane c runs the shards of pool chunk c: [c*k/L, (c+1)*k/L).
    for (std::int64_t c = 0; c < lanes; ++c) {
      std::size_t lane = 0;
      for (std::int64_t j = c * k / lanes; j < (c + 1) * k / lanes; ++j) {
        lane = std::max(lane, peak(shards[static_cast<std::size_t>(j)], 1));
      }
      floats += lane;
    }
  }
  return static_cast<double>(floats) * kBytes;
}

std::int64_t MemoryModel::max_batch(double capacity_bytes, std::int64_t granularity,
                                    std::int64_t max_batch) const {
  std::int64_t best = granularity;
  for (std::int64_t b = granularity; b <= max_batch; b += granularity) {
    if (training_bytes(b) <= capacity_bytes) {
      best = b;
    } else {
      break;
    }
  }
  return best;
}

}  // namespace pt::cost
