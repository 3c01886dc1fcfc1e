// The built-in gradient-codec zoo (ISSUE 9): three wire formats behind the
// GradientCodec interface, all honoring the deterministic-parallelism and
// state round-trip contracts codec.h spells out.
//
//  dense        — FP32 passthrough; bit-for-bit the reference exchange the
//                 clusters shipped before the codec API existed.
//  twobit       — 2-bit threshold quantization with per-replica
//                 error-feedback residuals: v = grad + residual is mapped
//                 to {-s, 0, +s} with s = mean|v| (per tensor), and the
//                 quantization error v - decoded is carried into the next
//                 step. ~16x wire reduction at any width.
//  live_channel — prune-aware compaction: transmits only the rows of
//                 multi-dim parameter tensors whose channel is still live
//                 (any nonzero weight) under the channel-union metadata
//                 read from the reference network at bind time, recompacted
//                 on every reconfiguration. Dead-row gradients are dropped
//                 deterministically (the proximal post-step re-zeros those
//                 channels anyway); 1-D tensors ship dense.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/codec.h"

namespace pt::dist {

/// FP32 passthrough — the reference codec. encode() copies the gradient
/// verbatim and decode() copies it back, so the averaging loop downstream
/// sees bit-for-bit the same inputs as the pre-codec exchange.
class DenseCodec : public GradientCodec {
 public:
  std::string name() const override { return "dense"; }
  cost::CommCodec cost_kind() const override {
    return cost::CommCodec::kDense;
  }
  WireTensor encode(int rank, std::size_t tensor, const float* grad,
                    std::int64_t n, exec::ExecContext& ctx) override;
  void decode(const WireTensor& wire, std::size_t tensor, float* out,
              exec::ExecContext& ctx) const override;
};

/// 2-bit threshold quantization with error feedback. Per (rank, tensor)
/// residuals are the codec's named state ("residual/r<rank>/t<tensor>");
/// they ride the checkpoint "codec" section and the integrity digests, and
/// a rejoining replica's residuals are reset at resync. The per-tensor
/// scale is a mean-|v| reduction summed over fixed 4096-element blocks
/// combined in block order, so it is invariant to the thread count.
class TwoBitCodec : public GradientCodec {
 public:
  /// `threshold_scale` multiplies the mean-|v| quantization magnitude.
  explicit TwoBitCodec(float threshold_scale = 1.f)
      : threshold_scale_(threshold_scale) {}

  std::string name() const override { return "twobit"; }
  cost::CommCodec cost_kind() const override {
    return cost::CommCodec::kTwoBit;
  }
  void bind(graph::Network& reference, int replicas) override;
  WireTensor encode(int rank, std::size_t tensor, const float* grad,
                    std::int64_t n, exec::ExecContext& ctx) override;
  void decode(const WireTensor& wire, std::size_t tensor, float* out,
              exec::ExecContext& ctx) const override;

  std::vector<StateItem> state() const override;
  void load_state(const std::vector<StateItem>& items) override;
  void reset_replica(int rank) override;

  /// rank's error-feedback residual for tensor `tensor` (test access).
  const std::vector<float>& residual(int rank, std::size_t tensor) const {
    return residual_[static_cast<std::size_t>(rank)][tensor];
  }

 private:
  float threshold_scale_;
  /// residual_[rank][tensor] — sized by bind(), preserved across
  /// shape-compatible rebinds, reset on reconfiguration.
  std::vector<std::vector<std::vector<float>>> residual_;
};

/// Prune-aware live-row compaction. bind() reads the reference network's
/// weights and marks a row of every >= 2-D parameter tensor dead when all
/// its weights are exactly zero — the channel-union proximal operator
/// produces exact zeros, and replicas are bit-identical, so every rank
/// derives the same mask. The mask is named state ("live_rows/t<tensor>")
/// so a mid-phase resume reuses the mask of the interrupted run bitwise
/// instead of re-deriving it from further-sparsified weights.
class LiveChannelCodec : public GradientCodec {
 public:
  std::string name() const override { return "live_channel"; }
  cost::CommCodec cost_kind() const override {
    return cost::CommCodec::kLiveChannel;
  }
  void bind(graph::Network& reference, int replicas) override;
  WireTensor encode(int rank, std::size_t tensor, const float* grad,
                    std::int64_t n, exec::ExecContext& ctx) override;
  void decode(const WireTensor& wire, std::size_t tensor, float* out,
              exec::ExecContext& ctx) const override;

  double live_fraction() const override { return live_fraction_; }
  std::vector<StateItem> state() const override;
  void load_state(const std::vector<StateItem>& items) override;

  /// Transmitted row indices of tensor `tensor` (empty when the tensor is
  /// unmasked, i.e. ships dense). Test access.
  const std::vector<std::int64_t>& live_rows(std::size_t tensor) const {
    return masks_[tensor].live;
  }

 private:
  struct TensorMask {
    bool masked = false;           ///< row-maskable (>= 2-D) tensor
    std::int64_t rows = 0;         ///< row count (dim 0)
    std::int64_t row_len = 1;      ///< elements per row
    std::vector<std::int64_t> live;  ///< transmitted rows, ascending
  };

  void refresh_live_fraction();

  std::vector<TensorMask> masks_;
  double live_fraction_ = 1.0;
  /// Mask loaded by load_state() before bind() saw the topology; adopted
  /// by the next bind() when shape-compatible (trainer resume order).
  std::vector<StateItem> pending_state_;
  bool state_loaded_ = false;
};

}  // namespace pt::dist
