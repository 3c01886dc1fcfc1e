#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace pt::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad, Rng& rng,
               bool bias)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias) {
  const double fan_in = static_cast<double>(in_c_ * kernel_ * kernel_);
  const float stddev = static_cast<float>(std::sqrt(2.0 / fan_in));
  weight_.value = Tensor::randn({out_c_, in_c_, kernel_, kernel_}, rng, 0.f, stddev);
  weight_.init_state();
  bias_.value = Tensor::zeros({out_c_});
  bias_.init_state();
}

Shape Conv2d::output_shape(const Shape& in) const {
  ConvGeom g{in_c_, in[2], in[3], kernel_, stride_, pad_};
  return {in[0], out_c_, g.out_h(), g.out_w()};
}

namespace {

// Lowering blocks of `g` at batch n: samples per block, and block count.
struct Blocks {
  std::int64_t samples, count;
};

Blocks lowering_blocks(const ConvGeom& g, std::int64_t n) {
  const std::int64_t bs = g.block_samples(n);
  return {bs, (n + bs - 1) / bs};
}

// Floats of one chunk's workspace slice: a block's [K, cols] output or
// gradient followed by its [CRS, cols] lowering.
std::size_t slice_floats(const ConvGeom& g, std::int64_t out_c, Blocks b) {
  return static_cast<std::size_t>((out_c + g.col_rows()) * b.samples *
                                  g.col_cols());
}

// The dW pass's parallel grain: CRS columns in whole GEMM tiles.
std::int64_t dw_tiles(const ConvGeom& g) {
  return (g.col_rows() + kGemmTileCols - 1) / kGemmTileCols;
}

// One slice of `floats` per chunk of a parallel_for over `tasks`, reserved
// before the region so the workspace's size does not depend on timing.
// Chunk c's slice starts at c * floats.
float* reserve_chunks(exec::ExecContext& ctx, std::int64_t tasks,
                      std::size_t floats) {
  const std::int64_t chunks = std::min<std::int64_t>(ctx.pool().size(), tasks);
  return ctx.workspace().reserve(static_cast<std::size_t>(chunks) * floats);
}

// Copies the [K, HW] planes of `samples` consecutive [K, HW] maps into (or,
// with to_block = false, out of) one [K, samples*HW] block matrix.
void block_copy(const float* src, float* dst, std::int64_t samples,
                std::int64_t k, std::int64_t hw, bool to_block) {
  for (std::int64_t s = 0; s < samples; ++s) {
    for (std::int64_t c = 0; c < k; ++c) {
      const std::int64_t map = (s * k + c) * hw;
      const std::int64_t blk = (c * samples + s) * hw;
      if (to_block) {
        std::copy(src + map, src + map + hw, dst + blk);
      } else {
        std::copy(src + blk, src + blk + hw, dst + map);
      }
    }
  }
}

}  // namespace

std::size_t Conv2d::workspace_floats(const ConvGeom& g,
                                     std::int64_t out_channels,
                                     std::int64_t batch, int threads) {
  const Blocks b = lowering_blocks(g, batch);
  const std::int64_t chunks =
      std::min<std::int64_t>(threads, std::max(b.count, dw_tiles(g)));
  return static_cast<std::size_t>(chunks) * slice_floats(g, out_channels, b);
}

Tensor Conv2d::do_forward(exec::ExecContext& ctx, const Tensor& x,
                          bool training) {
  const Shape& s = x.shape();
  if (s.rank() != 4 || s[1] != in_c_) {
    throw std::invalid_argument("Conv2d " + name() + ": bad input shape " +
                                s.to_string());
  }
  const std::int64_t n = s[0];
  ConvGeom g{in_c_, s[2], s[3], kernel_, stride_, pad_};
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  Tensor y({n, out_c_, ho, wo});
  const std::int64_t crs = g.col_rows();
  const std::int64_t hw_out = g.col_cols();
  const std::int64_t in_sample = in_c_ * s[2] * s[3];
  const std::int64_t out_sample = out_c_ * ho * wo;
  const Blocks blocks = lowering_blocks(g, n);

  // Parallel over sample blocks: each chunk lowers its blocks into its
  // workspace slice and runs one GEMM per block (nested, so inline). Every
  // y element is one FMA chain over CRS whatever the block or thread count.
  const std::size_t floats = slice_floats(g, out_c_, blocks);
  float* ws = reserve_chunks(ctx, blocks.count, floats);
  ctx.pool().parallel_for(
      blocks.count, [&](std::int64_t b0, std::int64_t b1, int chunk) {
        float* out = ws + static_cast<std::size_t>(chunk) * floats;
        float* col = out + out_c_ * blocks.samples * hw_out;
        for (std::int64_t b = b0; b < b1; ++b) {
          const std::int64_t i0 = b * blocks.samples;
          const std::int64_t ns = std::min(blocks.samples, n - i0);
          im2col(g, x.data() + i0 * in_sample, ns, 0, crs, col);
          gemm_nn(ctx, out_c_, ns * hw_out, crs, 1.f, weight_.value.data(), col,
                  0.f, out);
          block_copy(out, y.data() + i0 * out_sample, ns, out_c_, hw_out, false);
        }
      });
  if (has_bias_) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t k = 0; k < out_c_; ++k) {
        float* row = y.data() + i * out_sample + k * ho * wo;
        const float b = bias_.value.at(k);
        for (std::int64_t p = 0; p < ho * wo; ++p) row[p] += b;
      }
    }
  }
  if (training) input_ = x;
  return y;
}

Tensor Conv2d::do_backward(exec::ExecContext& ctx, const Tensor& dy) {
  if (!input_.defined()) {
    throw std::logic_error("Conv2d " + name() + ": backward without forward");
  }
  const Shape& s = input_.shape();
  const std::int64_t n = s[0];
  ConvGeom g{in_c_, s[2], s[3], kernel_, stride_, pad_};
  const std::int64_t crs = g.col_rows();
  const std::int64_t hw_out = g.col_cols();
  const std::int64_t in_sample = in_c_ * s[2] * s[3];
  const std::int64_t out_sample = out_c_ * g.out_h() * g.out_w();
  const Blocks blocks = lowering_blocks(g, n);
  const std::size_t floats = slice_floats(g, out_c_, blocks);

  // dW[K, CRS] += dy[K, cols] @ col[CRS, cols]^T, split over CRS in whole
  // GEMM tiles: each chunk lowers only its own rows and walks the blocks in
  // sample order, so every dW element is one FMA chain over
  // (sample, position) at any thread count.
  const std::int64_t tiles = dw_tiles(g);
  float* ws = reserve_chunks(ctx, tiles, floats);
  ctx.pool().parallel_for(tiles, [&](std::int64_t t0, std::int64_t t1, int chunk) {
    const std::int64_t j0 = t0 * kGemmTileCols;
    const std::int64_t j1 = std::min(t1 * kGemmTileCols, crs);
    float* dyb = ws + static_cast<std::size_t>(chunk) * floats;
    float* col = dyb + out_c_ * blocks.samples * hw_out;
    for (std::int64_t b = 0; b < blocks.count; ++b) {
      const std::int64_t i0 = b * blocks.samples;
      const std::int64_t ns = std::min(blocks.samples, n - i0);
      const std::int64_t cols = ns * hw_out;
      block_copy(dy.data() + i0 * out_sample, dyb, ns, out_c_, hw_out, true);
      im2col(g, input_.data() + i0 * in_sample, ns, j0, j1, col);
      gemm(ctx, out_c_, j1 - j0, cols, 1.f, {dyb, cols, 1}, {col, 1, cols}, 1.f,
           weight_.grad.data() + j0, crs);
    }
  });

  // dcol[CRS, cols] = W[K, CRS]^T @ dy[K, cols], parallel over sample
  // blocks; col2im then scatters each sample in turn into its own dx.
  Tensor dx(s);
  ws = reserve_chunks(ctx, blocks.count, floats);
  ctx.pool().parallel_for(
      blocks.count, [&](std::int64_t b0, std::int64_t b1, int chunk) {
        float* dyb = ws + static_cast<std::size_t>(chunk) * floats;
        float* dcol = dyb + out_c_ * blocks.samples * hw_out;
        for (std::int64_t b = b0; b < b1; ++b) {
          const std::int64_t i0 = b * blocks.samples;
          const std::int64_t ns = std::min(blocks.samples, n - i0);
          block_copy(dy.data() + i0 * out_sample, dyb, ns, out_c_, hw_out, true);
          gemm_tn(ctx, crs, ns * hw_out, out_c_, 1.f, weight_.value.data(), dyb,
                  0.f, dcol);
          col2im(g, dcol, ns, dx.data() + i0 * in_sample);
        }
      });
  if (has_bias_) {
    const std::int64_t hw = g.out_h() * g.out_w();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t k = 0; k < out_c_; ++k) {
        const float* row = dy.data() + i * out_sample + k * hw;
        double acc = 0.0;
        for (std::int64_t p = 0; p < hw; ++p) acc += row[p];
        bias_.grad.at(k) += static_cast<float>(acc);
      }
    }
  }
  return dx;
}

std::vector<Param*> Conv2d::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::vector<const Param*> Conv2d::params() const {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::vector<StateEntry> Conv2d::state() {
  std::vector<StateEntry> out;
  append_param_state(out, weight_, "weight");
  if (has_bias_) append_param_state(out, bias_, "bias");
  return out;
}

float Conv2d::in_channel_max_abs(std::int64_t c) const {
  const std::int64_t rs = kernel_ * kernel_;
  float m = 0.f;
  const float* w = weight_.value.data();
  for (std::int64_t k = 0; k < out_c_; ++k) {
    const float* p = w + (k * in_c_ + c) * rs;
    for (std::int64_t q = 0; q < rs; ++q) m = std::max(m, std::fabs(p[q]));
  }
  return m;
}

float Conv2d::out_channel_max_abs(std::int64_t k) const {
  const std::int64_t len = in_c_ * kernel_ * kernel_;
  const float* p = weight_.value.data() + k * len;
  float m = 0.f;
  for (std::int64_t q = 0; q < len; ++q) m = std::max(m, std::fabs(p[q]));
  return m;
}

void Conv2d::zero_small_weights(float eps) {
  for (float& v : weight_.value.span()) {
    if (std::fabs(v) <= eps) v = 0.f;
  }
}

namespace {

// Slices a [K, C, R, S] tensor down to the given index sets.
Tensor slice4(const Tensor& t, const std::vector<std::int64_t>& keep_out,
              const std::vector<std::int64_t>& keep_in, std::int64_t rs) {
  const std::int64_t in_c = t.shape()[1];
  const std::int64_t k2 = static_cast<std::int64_t>(keep_out.size());
  const std::int64_t c2 = static_cast<std::int64_t>(keep_in.size());
  Tensor out({k2, c2, t.shape()[2], t.shape()[3]});
  for (std::int64_t a = 0; a < k2; ++a) {
    for (std::int64_t b = 0; b < c2; ++b) {
      const float* src = t.data() + (keep_out[static_cast<std::size_t>(a)] * in_c +
                                     keep_in[static_cast<std::size_t>(b)]) *
                                        rs;
      float* dst = out.data() + (a * c2 + b) * rs;
      for (std::int64_t q = 0; q < rs; ++q) dst[q] = src[q];
    }
  }
  return out;
}

Tensor slice1(const Tensor& t, const std::vector<std::int64_t>& keep) {
  Tensor out({static_cast<std::int64_t>(keep.size())});
  for (std::size_t i = 0; i < keep.size(); ++i) out.at(static_cast<std::int64_t>(i)) = t.at(keep[i]);
  return out;
}

}  // namespace

void Conv2d::shrink(const std::vector<std::int64_t>& keep_in,
                    const std::vector<std::int64_t>& keep_out) {
  if (keep_in.empty() || keep_out.empty()) {
    throw std::invalid_argument("Conv2d::shrink: empty keep set for " + name());
  }
  const std::int64_t rs = kernel_ * kernel_;
  weight_.value = slice4(weight_.value, keep_out, keep_in, rs);
  weight_.grad = slice4(weight_.grad, keep_out, keep_in, rs);
  weight_.momentum = slice4(weight_.momentum, keep_out, keep_in, rs);
  bias_.value = slice1(bias_.value, keep_out);
  bias_.grad = slice1(bias_.grad, keep_out);
  bias_.momentum = slice1(bias_.momentum, keep_out);
  in_c_ = static_cast<std::int64_t>(keep_in.size());
  out_c_ = static_cast<std::int64_t>(keep_out.size());
  input_ = Tensor();
}

}  // namespace pt::nn
