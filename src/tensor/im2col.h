// im2col / col2im lowering for convolution-as-GEMM.
//
// The forward convolution of a block of samples lowers their [C, H, W]
// inputs into one [C*R*S, samples*Ho*Wo] column matrix (sample s owns
// columns [s*Ho*Wo, (s+1)*Ho*Wo) of every row), so that conv becomes one
// GEMM with the [K, C*R*S] filter matrix. col2im is the exact adjoint,
// used to produce input gradients. (A unit test asserts the adjoint
// property <im2col(x), y> == <x, col2im(y)> which pins both down.)
#pragma once

#include <cstdint>

namespace pt {

/// Geometry of one 2-D convolution.
struct ConvGeom {
  std::int64_t in_c = 0;      ///< input channels C
  std::int64_t in_h = 0;      ///< input height H
  std::int64_t in_w = 0;      ///< input width W
  std::int64_t kernel = 1;    ///< square kernel extent R = S
  std::int64_t stride = 1;    ///< stride in both dims
  std::int64_t pad = 0;       ///< zero-padding in both dims

  std::int64_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the lowered column matrix: C*R*S.
  std::int64_t col_rows() const { return in_c * kernel * kernel; }
  /// Columns one sample contributes to the lowered matrix: Ho*Wo.
  std::int64_t col_cols() const { return out_h() * out_w(); }
  /// Samples lowered together: the fewest whose columns reach
  /// kLoweringColumns, capped at `batch`. A function of the shape alone.
  std::int64_t block_samples(std::int64_t batch) const;
};

/// Columns a lowering block aims for. Wider blocks time the same on the
/// 8x8 ResNet shapes and only grow the workspace.
inline constexpr std::int64_t kLoweringColumns = 128;

/// Lowers `samples` consecutive [C, H, W] inputs into rows
/// [row_begin, row_end) of their column matrix; `col` receives row
/// row_begin, and rows are samples*Ho*Wo floats apart.
void im2col(const ConvGeom& g, const float* input, std::int64_t samples,
            std::int64_t row_begin, std::int64_t row_end, float* col);

/// Lowers one [C, H, W] input into its whole [C*R*S, Ho*Wo] column matrix.
inline void im2col(const ConvGeom& g, const float* input, float* col) {
  im2col(g, input, 1, 0, g.col_rows(), col);
}

/// Adjoint of im2col: accumulates the column matrix of `samples` samples
/// back into their consecutive [C, H, W] gradients, one sample after the
/// other. `input_grad` must be zeroed by the caller beforehand.
void col2im(const ConvGeom& g, const float* col, std::int64_t samples,
            float* input_grad);

/// col2im of one sample.
inline void col2im(const ConvGeom& g, const float* col, float* input_grad) {
  col2im(g, col, 1, input_grad);
}

}  // namespace pt
