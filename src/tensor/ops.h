// Dense compute kernels: GEMM, BLAS-1 style helpers, and reductions.
//
// All kernels are plain functions over raw pointers/spans so that the layer
// implementations can run them on sub-ranges without allocating views. GEMM
// is a cache-blocked triple loop; the context-taking overloads parallelize
// over row blocks through the exec::ExecContext thread pool with a *static*
// block partition, so N-thread results are bitwise-identical to 1-thread
// (each C row is produced by the same serial instruction sequence either
// way). Roughly 3-6 GFLOP/s per core, which is all this repo needs.
#pragma once

#include <cstdint>
#include <span>

#include "exec/context.h"
#include "tensor/tensor.h"

namespace pt {

// Context-taking GEMMs — the production hot path. Nested calls (a GEMM
// issued from inside a parallel_for chunk, e.g. conv2d's per-sample
// forward) run their blocks inline on the issuing thread.

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

// There are no context-free GEMM overloads: every caller passes an
// exec::ExecContext (single-threaded callers own an ExecContext(1)).

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
