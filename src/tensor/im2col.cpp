#include "tensor/im2col.h"

#include <algorithm>

namespace pt {

std::int64_t ConvGeom::block_samples(std::int64_t batch) const {
  const std::int64_t cols = col_cols();
  return std::max<std::int64_t>(
      1, std::min(batch, (kLoweringColumns + cols - 1) / cols));
}

namespace {

// Output positions [lo, hi) along one axis whose input position
// o*stride - pad + tap lies inside [0, in); the rest read padding.
struct Valid {
  std::int64_t lo, hi;
};

Valid valid_range(const ConvGeom& g, std::int64_t tap, std::int64_t in,
                  std::int64_t out) {
  auto first_at_least = [&](std::int64_t bound) {  // min o: o*stride >= bound
    return bound <= 0 ? 0 : (bound + g.stride - 1) / g.stride;
  };
  const std::int64_t lo = std::min(out, first_at_least(g.pad - tap));
  const std::int64_t hi = std::min(out, first_at_least(in + g.pad - tap));
  return {lo, std::max(lo, hi)};
}

// One lowered row (channel c, tap r, s) of a block of samples: its valid
// output window and where it reads. `visit(o, i)` is called once per valid
// output position and sample, with o the offset in the row (n*cols + q)
// and i the offset in the input (n*C*H*W + c*H*W + ih*W + iw). Samples go
// innermost when rows of the window are shorter than the block, so small
// planes (2x2 outputs, 32 samples) pay the per-position set-up once per
// block rather than once per sample.
template <class Visit>
void for_each_tap_position(const ConvGeom& g, std::int64_t row,
                           std::int64_t samples, Visit&& visit) {
  const std::int64_t wo = g.out_w();
  const std::int64_t cols = g.col_cols();
  const std::int64_t hw = g.in_h * g.in_w;
  const std::int64_t sample_in = g.in_c * hw;
  const std::int64_t r = (row / g.kernel) % g.kernel;
  const std::int64_t s = row % g.kernel;
  const std::int64_t chan = row / (g.kernel * g.kernel) * hw;
  const Valid vh = valid_range(g, r, g.in_h, g.out_h());
  const Valid vw = valid_range(g, s, g.in_w, wo);
  auto input_at = [&](std::int64_t oh, std::int64_t ow) {
    return chan + (oh * g.stride - g.pad + r) * g.in_w + ow * g.stride -
           g.pad + s;
  };
  if (samples >= vw.hi - vw.lo) {
    for (std::int64_t oh = vh.lo; oh < vh.hi; ++oh)
      for (std::int64_t ow = vw.lo; ow < vw.hi; ++ow)
        for (std::int64_t n = 0; n < samples; ++n)
          visit(n * cols + oh * wo + ow, n * sample_in + input_at(oh, ow));
  } else {
    for (std::int64_t n = 0; n < samples; ++n)
      for (std::int64_t oh = vh.lo; oh < vh.hi; ++oh)
        for (std::int64_t ow = vw.lo; ow < vw.hi; ++ow)
          visit(n * cols + oh * wo + ow, n * sample_in + input_at(oh, ow));
  }
}

}  // namespace

void im2col(const ConvGeom& g, const float* input, std::int64_t samples,
            std::int64_t row_begin, std::int64_t row_end, float* col) {
  const std::int64_t ld = samples * g.col_cols();
  for (std::int64_t row = row_begin; row < row_end; ++row) {
    float* out = col + (row - row_begin) * ld;
    std::fill(out, out + ld, 0.f);  // padding; the window overwrites the rest
    for_each_tap_position(g, row, samples, [&](std::int64_t o, std::int64_t i) {
      out[o] = input[i];
    });
  }
}

void col2im(const ConvGeom& g, const float* col, std::int64_t samples,
            float* input_grad) {
  const std::int64_t ld = samples * g.col_cols();
  // Rows ascend in the outer loop, so every input-gradient element sums its
  // contributions in row order, as a pass over one sample's rows would.
  for (std::int64_t row = 0; row < g.col_rows(); ++row) {
    const float* in = col + row * ld;
    for_each_tap_position(g, row, samples, [&](std::int64_t o, std::int64_t i) {
      input_grad[i] += in[o];
    });
  }
}

}  // namespace pt
