// Dense compute kernels: GEMM, BLAS-1 style helpers, and reductions.
//
// All kernels are plain functions over raw pointers/spans so that the layer
// implementations can run them on sub-ranges without allocating views.
//
// Every GEMM runs on one packed, register-tiled microkernel (a 6 x 16 tile
// of C held in registers) and follows one arithmetic rule: each output
// element is a single fused-multiply-add chain in k order, started from
// beta*C (exactly 0 when beta == 0, C untouched when beta == 1, the rounded
// product otherwise), whose step is C = fma(alpha*A[i,p], B[p,j], C). The
// chain does not depend on blocking, packing, thread count or -march: the
// kernel uses FMA intrinsics where the target has FMA and a std::fma loop
// (bit-identical, slower) where it does not. The context-taking drivers
// split C into macro tiles across the exec::ExecContext pool with a static
// partition; a call nested inside a parallel_for chunk runs inline.
#pragma once

#include <cstdint>
#include <span>

#include "exec/context.h"
#include "tensor/tensor.h"

namespace pt {

/// Columns of C one microkernel call produces (its register tile's width).
/// Callers that split C's columns across threads split on multiples of it,
/// so no split adds a partial tile.
inline constexpr std::int64_t kGemmTileCols = 16;

/// A read-only matrix operand: element (i, j) is at
/// p[i * row_stride + j * col_stride], so a transpose is a stride swap.
struct MatrixRef {
  const float* p = nullptr;
  std::int64_t row_stride = 0;
  std::int64_t col_stride = 0;
};

/// C[M,N] = alpha * A[M,K] @ B[K,N] + beta * C, where C's rows are `ldc`
/// floats apart. The driver behind the three entry points below.
void gemm(exec::ExecContext& ctx, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, MatrixRef a, MatrixRef b, float beta,
          float* c, std::int64_t ldc);

/// C[M,N] = alpha * A[M,K] @ B[K,N] + beta * C.
void gemm_nn(exec::ExecContext& ctx, std::int64_t m, std::int64_t n,
             std::int64_t k, float alpha, const float* a, const float* b,
             float beta, float* c);

/// C[M,N] = alpha * A[M,K] @ B[N,K]^T + beta * C.
void gemm_nt(exec::ExecContext& ctx, std::int64_t m, std::int64_t n,
             std::int64_t k, float alpha, const float* a, const float* b,
             float beta, float* c);

/// C[M,N] = alpha * A[K,M]^T @ B[K,N] + beta * C.
void gemm_tn(exec::ExecContext& ctx, std::int64_t m, std::int64_t n,
             std::int64_t k, float alpha, const float* a, const float* b,
             float beta, float* c);

/// y += alpha * x (sizes must match).
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha.
void scale(float alpha, std::span<float> x);

/// out = a + b elementwise.
void add(std::span<const float> a, std::span<const float> b, std::span<float> out);

/// Sum of all elements.
double sum(std::span<const float> x);

/// Sum of squares.
double sum_sq(std::span<const float> x);

/// max |x_i| (0 for empty).
float max_abs(std::span<const float> x);

/// Number of elements with |x_i| <= eps.
std::int64_t count_below(std::span<const float> x, float eps);

/// out = max(x, 0).
void relu(std::span<const float> x, std::span<float> out);

/// dx = dy where x > 0 else 0.
void relu_backward(std::span<const float> x, std::span<const float> dy,
                   std::span<float> dx);

}  // namespace pt
