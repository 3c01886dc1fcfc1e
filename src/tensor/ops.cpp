#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#if defined(__FMA__)
#include <immintrin.h>
#endif

namespace pt {
namespace {

// Register tile: kMR rows x kNR columns of C stay in registers for a whole
// kc-long run of FMAs (12 of the 16 AVX2 registers).
constexpr std::int64_t kMR = 6;
constexpr std::int64_t kNR = kGemmTileCols;
// Macro tile: the parallel grain. Per k block of kKC steps, a tile packs
// its kMC x kKC slice of A once and then one kKC x kNR panel of B at a
// time. C is stored and reloaded between k blocks, which leaves each
// element's FMA chain unbroken.
constexpr std::int64_t kMC = 8 * kMR;
constexpr std::int64_t kNC = 16 * kNR;
constexpr std::int64_t kKC = 256;

#if defined(__FMA__)
// Rows [0, R) of a kMR x kNR tile of C (rows ldc apart) continue their
// chains over kc steps: per step, kMR packed values of A and kNR values of
// B (steps ldb apart).
template <int R>
void microkernel(std::int64_t kc, const float* a, const float* b,
                 std::int64_t ldb, float* c, std::int64_t ldc) {
  __m256 lo[R], hi[R];
  for (int r = 0; r < R; ++r) {
    lo[r] = _mm256_loadu_ps(c + r * ldc);
    hi[r] = _mm256_loadu_ps(c + r * ldc + 8);
  }
  for (std::int64_t p = 0; p < kc; ++p, a += kMR, b += ldb) {
    const __m256 b0 = _mm256_loadu_ps(b);
    const __m256 b1 = _mm256_loadu_ps(b + 8);
    for (int r = 0; r < R; ++r) {
      const __m256 ar = _mm256_broadcast_ss(a + r);
      lo[r] = _mm256_fmadd_ps(ar, b0, lo[r]);
      hi[r] = _mm256_fmadd_ps(ar, b1, hi[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm256_storeu_ps(c + r * ldc, lo[r]);
    _mm256_storeu_ps(c + r * ldc + 8, hi[r]);
  }
}
// Transposes the 8x8 block held in v[0..7] (row i in v[i]) in place.
void transpose8(__m256 (&v)[8]) {
  __m256 t[8], u[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(v[i], v[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(v[i], v[i + 1]);
  }
  for (int i = 0; i < 8; i += 4) {
    u[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
    u[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
    u[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
    u[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int i = 0; i < 4; ++i) {
    v[i] = _mm256_permute2f128_ps(u[i], u[i + 4], 0x20);
    v[i + 4] = _mm256_permute2f128_ps(u[i], u[i + 4], 0x31);
  }
}
#else
// The same chains on a target without FMA instructions: std::fma rounds
// once per step exactly like the intrinsic, so the bits match.
template <int R>
void microkernel(std::int64_t kc, const float* a, const float* b,
                 std::int64_t ldb, float* c, std::int64_t ldc) {
  float acc[R][kNR];
  for (int r = 0; r < R; ++r)
    for (std::int64_t j = 0; j < kNR; ++j) acc[r][j] = c[r * ldc + j];
  for (std::int64_t p = 0; p < kc; ++p, a += kMR, b += ldb)
    for (int r = 0; r < R; ++r)
      for (std::int64_t j = 0; j < kNR; ++j)
        acc[r][j] = std::fma(a[r], b[j], acc[r][j]);
  for (int r = 0; r < R; ++r)
    for (std::int64_t j = 0; j < kNR; ++j) c[r * ldc + j] = acc[r][j];
}
#endif

// The microkernel over the first `rows` (1..kMR) rows of a tile.
void microkernel_rows(std::int64_t rows, std::int64_t kc, const float* a,
                      const float* b, std::int64_t ldb, float* c,
                      std::int64_t ldc) {
  static_assert(kMR == 6);
  switch (rows) {
    case 1: return microkernel<1>(kc, a, b, ldb, c, ldc);
    case 2: return microkernel<2>(kc, a, b, ldb, c, ldc);
    case 3: return microkernel<3>(kc, a, b, ldb, c, ldc);
    case 4: return microkernel<4>(kc, a, b, ldb, c, ldc);
    case 5: return microkernel<5>(kc, a, b, ldb, c, ldc);
    default: return microkernel<6>(kc, a, b, ldb, c, ldc);
  }
}

// Packs rows [0, rows) x k steps [0, kc) of the matrix whose element
// (r, q) is p[r * row_stride + q * k_stride] into panels of `width` rows:
// panel i holds, per k step, `width` consecutive values of rows
// i*width.., times `scale`; slots past `rows` are left as they are. A packs
// with its k dimension along its columns, B through its transpose.
void pack(std::int64_t rows, std::int64_t kc, std::int64_t width, float scale,
          const float* p, std::int64_t row_stride, std::int64_t k_stride,
          float* out) {
  for (std::int64_t r0 = 0; r0 < rows; r0 += width, out += kc * width) {
    const std::int64_t w = std::min(width, rows - r0);
    const float* src = p + r0 * row_stride;
    if (row_stride == 1) {
      for (std::int64_t q = 0; q < kc; ++q)
        for (std::int64_t r = 0; r < w; ++r)
          out[q * width + r] = scale * src[q * k_stride + r];
    } else {
      std::int64_t r = 0;
#if defined(__FMA__)
      if (k_stride == 1) {
        const __m256 sv = _mm256_set1_ps(scale);
        for (; r + 8 <= w; r += 8) {
          std::int64_t q = 0;
          for (; q + 8 <= kc; q += 8) {
            __m256 v[8];
            for (int i = 0; i < 8; ++i) {
              v[i] = _mm256_mul_ps(
                  sv, _mm256_loadu_ps(src + (r + i) * row_stride + q));
            }
            transpose8(v);
            for (int i = 0; i < 8; ++i) {
              _mm256_storeu_ps(out + (q + i) * width + r, v[i]);
            }
          }
          for (; q < kc; ++q)
            for (std::int64_t i = r; i < r + 8; ++i)
              out[q * width + i] = scale * src[i * row_stride + q];
        }
      }
#endif
      for (; r < w; ++r)
        for (std::int64_t q = 0; q < kc; ++q)
          out[q * width + r] = scale * src[r * row_stride + q * k_stride];
    }
  }
}

// Per-thread packing buffers, at their fixed maximum size.
struct PackBuffers {
  std::unique_ptr<float[]> a{new float[kMC * kKC]};
  std::unique_ptr<float[]> b{new float[kKC * kNR]};
};

// One macro tile: C rows [i0, i0+mc) x columns [j0, j0+nc).
void gemm_tile(std::int64_t i0, std::int64_t mc, std::int64_t j0,
               std::int64_t nc, std::int64_t k, float alpha, MatrixRef a,
               MatrixRef b, float beta, float* c, std::int64_t ldc) {
  thread_local PackBuffers buf;
  float* ct = c + i0 * ldc + j0;
  for (std::int64_t i = 0; i < mc; ++i) {
    float* row = ct + i * ldc;
    if (beta == 0.f) {
      std::fill(row, row + nc, 0.f);
    } else if (beta != 1.f) {
      for (std::int64_t j = 0; j < nc; ++j) row[j] *= beta;
    }
  }
  for (std::int64_t p0 = 0; p0 < k; p0 += kKC) {
    const std::int64_t kc = std::min(kKC, k - p0);
    pack(mc, kc, kMR, alpha, a.p + i0 * a.row_stride + p0 * a.col_stride,
         a.row_stride, a.col_stride, buf.a.get());
    for (std::int64_t jr = 0; jr < nc; jr += kNR) {
      const std::int64_t nr = std::min(kNR, nc - jr);
      // A full panel of row-major B is read in place; any other is packed.
      const float* bp = b.p + p0 * b.row_stride + (j0 + jr) * b.col_stride;
      std::int64_t ldb = b.row_stride;
      if (nr < kNR || b.col_stride != 1) {
        // The kernel reads all kNR columns: pad with zeros, whose products
        // land in the dropped columns of the edge copy below.
        if (nr < kNR) std::fill(buf.b.get(), buf.b.get() + kc * kNR, 0.f);
        pack(nr, kc, kNR, 1.f, bp, b.col_stride, b.row_stride, buf.b.get());
        bp = buf.b.get();
        ldb = kNR;
      }
      for (std::int64_t ir = 0; ir < mc; ir += kMR) {
        const float* ap = buf.a.get() + ir * kc;
        const std::int64_t mr = std::min(kMR, mc - ir);
        float* cp = ct + ir * ldc + jr;
        if (nr == kNR) {
          microkernel_rows(mr, kc, ap, bp, ldb, cp, ldc);
          continue;
        }
        // Column edge: run full-width rows on a copy; the padded columns
        // compute products of zero padding and are dropped.
        float edge[kMR * kNR] = {};
        for (std::int64_t r = 0; r < mr; ++r)
          std::copy(cp + r * ldc, cp + r * ldc + nr, edge + r * kNR);
        microkernel_rows(mr, kc, ap, bp, ldb, edge, kNR);
        for (std::int64_t r = 0; r < mr; ++r)
          std::copy(edge + r * kNR, edge + r * kNR + nr, cp + r * ldc);
      }
    }
  }
}

}  // namespace

void gemm(exec::ExecContext& ctx, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, MatrixRef a, MatrixRef b, float beta,
          float* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  // Macro tiles are the static parallel grain. A tile's bits do not depend
  // on which chunk runs it, so any thread count gives the same C.
  const std::int64_t mt = (m + kMC - 1) / kMC;
  const std::int64_t nt = (n + kNC - 1) / kNC;
  ctx.pool().parallel_for(mt * nt, [&](std::int64_t t0, std::int64_t t1, int) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t i0 = (t % mt) * kMC;
      const std::int64_t j0 = (t / mt) * kNC;
      gemm_tile(i0, std::min(kMC, m - i0), j0, std::min(kNC, n - j0), k, alpha,
                a, b, beta, c, ldc);
    }
  });
}

void gemm_nn(exec::ExecContext& ctx, std::int64_t m, std::int64_t n,
             std::int64_t k, float alpha, const float* a, const float* b,
             float beta, float* c) {
  gemm(ctx, m, n, k, alpha, {a, k, 1}, {b, n, 1}, beta, c, n);
}

void gemm_nt(exec::ExecContext& ctx, std::int64_t m, std::int64_t n,
             std::int64_t k, float alpha, const float* a, const float* b,
             float beta, float* c) {
  gemm(ctx, m, n, k, alpha, {a, k, 1}, {b, 1, k}, beta, c, n);
}

void gemm_tn(exec::ExecContext& ctx, std::int64_t m, std::int64_t n,
             std::int64_t k, float alpha, const float* a, const float* b,
             float beta, float* c) {
  gemm(ctx, m, n, k, alpha, {a, 1, m}, {b, n, 1}, beta, c, n);
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float alpha, std::span<float> x) {
  for (float& v : x) v *= alpha;
}

void add(std::span<const float> a, std::span<const float> b, std::span<float> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

double sum(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += v;
  return acc;
}

double sum_sq(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += static_cast<double>(v) * v;
  return acc;
}

float max_abs(std::span<const float> x) {
  float m = 0.f;
  for (float v : x) m = std::max(m, std::fabs(v));
  return m;
}

std::int64_t count_below(std::span<const float> x, float eps) {
  std::int64_t n = 0;
  for (float v : x) n += (std::fabs(v) <= eps) ? 1 : 0;
  return n;
}

void relu(std::span<const float> x, std::span<float> out) {
  assert(x.size() == out.size());
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] > 0.f ? x[i] : 0.f;
}

void relu_backward(std::span<const float> x, std::span<const float> dy,
                   std::span<float> dx) {
  assert(x.size() == dy.size() && x.size() == dx.size());
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) dx[i] = x[i] > 0.f ? dy[i] : 0.f;
}

}  // namespace pt
