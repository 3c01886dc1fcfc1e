// 2-D convolution layer (im2col + GEMM), with channel-surgery support.
//
// Weight layout is [K, C, R, S] (out-channels first). Bias is optional and
// off by default since every conv in the reproduced models is followed by
// batch norm. shrink() implements the physical reconfiguration step of
// PruneTrain: it slices weight/grad/momentum down to the surviving channel
// index sets, preserving optimizer state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "tensor/im2col.h"

namespace pt::nn {

class Conv2d final : public Layer {
 public:
  /// Creates a conv with Kaiming-normal initialized weights.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
         std::int64_t stride, std::int64_t pad, Rng& rng, bool bias = false);

  std::vector<Param*> params() override;
  std::vector<const Param*> params() const override;
  std::vector<StateEntry> state() override;
  std::string type() const override { return "Conv2d"; }
  Shape output_shape(const Shape& in) const override;
  void clear_context() override { input_ = Tensor(); }

  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }
  bool has_bias() const { return has_bias_; }

  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  Param& bias() { return bias_; }

  /// Max |w| over the weights feeding *from* input channel `c` (the paper's
  /// input-channel lasso group W[:, c, :, :]).
  float in_channel_max_abs(std::int64_t c) const;
  /// Max |w| over the weights feeding *into* output channel `k`
  /// (W[k, :, :, :]).
  float out_channel_max_abs(std::int64_t k) const;

  /// Zeroes every weight with |w| <= eps (the paper's 1e-4 thresholding).
  void zero_small_weights(float eps);

  /// Physically removes all input channels not in `keep_in` and output
  /// channels not in `keep_out` (both sorted, unique, non-empty). Slices
  /// value/grad/momentum consistently.
  void shrink(const std::vector<std::int64_t>& keep_in,
              const std::vector<std::int64_t>& keep_out);

  /// Workspace floats one forward or backward call of a conv with geometry
  /// `g` and `out_channels` reserves at `batch` on a `threads`-thread pool:
  /// one slice per parallel chunk of its widest pass.
  static std::size_t workspace_floats(const ConvGeom& g,
                                      std::int64_t out_channels,
                                      std::int64_t batch, int threads);

 protected:
  /// Both passes lower blocks of ConvGeom::block_samples() samples at a
  /// time into one workspace slice per pool chunk and run one GEMM per block
  /// and pass: forward and dx split the sample blocks across the pool, dW
  /// splits the CRS columns and walks the blocks in sample order. No
  /// per-call heap allocation in steady state.
  Tensor do_forward(exec::ExecContext& ctx, const Tensor& x,
                    bool training) override;
  Tensor do_backward(exec::ExecContext& ctx, const Tensor& dy) override;

 private:
  std::int64_t in_c_, out_c_, kernel_, stride_, pad_;
  bool has_bias_;
  Param weight_;  // [K, C, R, S]
  Param bias_;    // [K] (unused unless has_bias_)
  Tensor input_;  // cached for backward
};

}  // namespace pt::nn
