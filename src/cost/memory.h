// Training-memory-context and DRAM-traffic accounting.
//
// Two quantities the paper leans on:
//  1. The *training memory context* (Sec. 2.2): every layer's forward output
//     is live until backward consumes it, so the per-device memory need is
//     roughly sum(activation bytes) * batch + parameter state + workspace.
//     This drives Fig. 9 and dynamic mini-batch adjustment.
//  2. *BN DRAM traffic*: batch norm is memory-bandwidth bound; its cost is
//     bytes moved, not FLOPs (Fig. 8b/d "BN cost [TB]", and the claimed
//     37% BN-traffic saving for ResNet50/ImageNet).
#pragma once

#include <cstdint>
#include <vector>

#include "exec/context.h"
#include "graph/network.h"
#include "tensor/im2col.h"

namespace pt::cost {

/// Byte-level accounting of one training iteration.
struct MemoryBreakdown {
  double activations_per_sample = 0;  ///< stored forward outputs, bytes/sample
  double parameters = 0;              ///< weight bytes
  double optimizer_state = 0;         ///< gradient + momentum bytes
};

class MemoryModel {
 public:
  /// `input` is the per-sample input shape {C, H, W}. `ctx` is the
  /// execution context the model will run on, and `replicas` the elastic
  /// cluster size (all live) whose step shards each mini-batch: the
  /// workspace term then predicts the bytes ctx's workspace and its lanes
  /// hold (exec::ExecContext::workspace_stats) *exactly* — the largest
  /// conv's lowering scratch (nn::Conv2d::workspace_floats: one slice per
  /// parallel chunk) at each shard's size. Null models a single-threaded
  /// context. tests/exec_test.cpp asserts model == measured.
  MemoryModel(graph::Network& net, Shape input,
              const exec::ExecContext* ctx = nullptr, int replicas = 1);

  const MemoryBreakdown& breakdown() const { return breakdown_; }

  /// Conv scratch bytes held after a step of `batch` samples: the
  /// lowering block, and so each chunk's slice, is capped at the shard.
  /// When two or more lanes run the shards, lane c holds the largest
  /// scratch of its chunk's shards on one thread, and the lanes add up.
  double workspace_bytes(std::int64_t batch) const;

  /// Training-context bytes for a mini-batch of `batch` samples.
  double training_bytes(std::int64_t batch) const {
    return breakdown_.activations_per_sample * static_cast<double>(batch) +
           breakdown_.parameters + breakdown_.optimizer_state +
           workspace_bytes(batch);
  }

  /// Largest batch that fits in `capacity_bytes`, quantized down to a
  /// multiple of `granularity` and clamped to [granularity, max_batch].
  /// Returns `granularity` even if nothing fits (the run must proceed).
  std::int64_t max_batch(double capacity_bytes, std::int64_t granularity,
                         std::int64_t max_batch) const;

  /// DRAM bytes moved by all BN layers in one training iteration per
  /// sample: ~3 passes forward (mean, variance, normalize+write) and
  /// ~4 passes backward (two reductions, dx compute reads dy and xhat,
  /// write dx), 4 bytes each.
  double bn_traffic_per_sample() const { return bn_traffic_per_sample_; }

 private:
  // One lowered conv: its geometry and output channels.
  struct ConvLowering {
    ConvGeom geom;
    std::int64_t out_channels;
  };

  MemoryBreakdown breakdown_;
  std::vector<ConvLowering> convs_;
  int threads_ = 1;
  int replicas_ = 1;
  double bn_traffic_per_sample_ = 0;
};

}  // namespace pt::cost
