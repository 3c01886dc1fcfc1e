// Unit and property tests for the tensor substrate: shapes, storage
// semantics, GEMM bit for bit against a naive chain of its arithmetic rule,
// and the im2col/col2im adjoint property that pins down conv lowering.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <tuple>

#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace pt {
namespace {

TEST(Shape, NumelAndEquality) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s, (Shape{2, 3, 4}));
  EXPECT_NE(s, (Shape{2, 3, 5}));
  EXPECT_NE(s, (Shape{2, 3}));
  EXPECT_EQ(Shape{}.numel(), 1);
}

TEST(Shape, ToString) {
  EXPECT_EQ((Shape{2, 3}).to_string(), "[2, 3]");
  EXPECT_EQ(Shape{}.to_string(), "[]");
}

TEST(Tensor, ZerosAndFill) {
  Tensor t({2, 3});
  for (float v : t.span()) EXPECT_EQ(v, 0.f);
  t.fill(2.5f);
  for (float v : t.span()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, FullFactory) {
  Tensor t = Tensor::full({4}, -1.f);
  for (float v : t.span()) EXPECT_EQ(v, -1.f);
}

TEST(Tensor, FromValuesChecksSize) {
  EXPECT_NO_THROW(Tensor::from_values({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_values({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, CopySharesStorageCloneDoesNot) {
  Tensor a({3});
  Tensor b = a;  // shallow
  Tensor c = a.clone();
  a.at(0) = 7.f;
  EXPECT_EQ(b.at(0), 7.f);
  EXPECT_EQ(c.at(0), 0.f);
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_FALSE(a.shares_storage_with(c));
}

TEST(Tensor, ReshapeSharesStorageAndChecksNumel) {
  Tensor a({2, 6});
  Tensor b = a.reshape({3, 4});
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(b.shape(), (Shape{3, 4}));
  EXPECT_THROW(a.reshape({5, 2}), std::invalid_argument);
}

TEST(Tensor, MultiDimIndexing) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.f;
  // Flat offset of [1,2,3,4] in a [2,3,4,5] tensor.
  EXPECT_EQ(t.data()[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.f);
}

TEST(Tensor, RandnStatistics) {
  Rng rng(42);
  Tensor t = Tensor::randn({10000}, rng, 1.f, 2.f);
  const double mean = sum(t.span()) / 10000.0;
  double var = 0;
  for (float v : t.span()) var += (v - mean) * (v - mean);
  var /= 10000.0;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Tensor, RandUniformRange) {
  Rng rng(7);
  Tensor t = Tensor::rand_uniform({1000}, rng, -2.f, 3.f);
  for (float v : t.span()) {
    EXPECT_GE(v, -2.f);
    EXPECT_LT(v, 3.f);
  }
}

TEST(Rng, Deterministic) {
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkDecorrelates) {
  Rng a(5);
  Rng child = a.fork();
  // Child stream differs from the parent's continuation.
  EXPECT_NE(child.next_u64(), a.next_u64());
}

TEST(Rng, UniformIntBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_int(17), 17u);
  }
}

// --- GEMM vs the arithmetic rule -------------------------------------------

// The rule every GEMM follows, written out naively: C[i,j] starts at beta*C
// (exactly 0 when beta == 0, untouched when beta == 1) and takes one fused
// multiply-add per k step, in k order, of alpha*A[i,p] and B[p,j]. A and B
// are strided views; C is row-major with `ldc`.
void rule_gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               MatrixRef a, MatrixRef b, float beta, float* c,
               std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = c[i * ldc + j];
      if (beta == 0.f) {
        acc = 0.f;
      } else if (beta != 1.f) {
        acc = beta * acc;
      }
      for (std::int64_t p = 0; p < k; ++p) {
        acc = std::fma(alpha * a.p[i * a.row_stride + p * a.col_stride],
                       b.p[p * b.row_stride + j * b.col_stride], acc);
      }
      c[i * ldc + j] = acc;
    }
  }
}

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.numel() == y.numel() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.numel()) * sizeof(float)) == 0;
}

struct GemmDims {
  std::int64_t m, n, k;
};

class GemmTest : public ::testing::TestWithParam<GemmDims> {};

TEST_P(GemmTest, NNMatchesNaive) {
  exec::ExecContext ctx(1);
  const auto [m, n, k] = GetParam();
  Rng rng(m * 100 + n * 10 + k);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n}), ref({m, n});
  gemm_nn(ctx, m, n, k, 1.f, a.data(), b.data(), 0.f, c.data());
  rule_gemm(m, n, k, 1.f, {a.data(), k, 1}, {b.data(), n, 1}, 0.f, ref.data(), n);
  EXPECT_TRUE(same_bits(c, ref));
}

TEST_P(GemmTest, NTMatchesNaive) {
  exec::ExecContext ctx(1);
  const auto [m, n, k] = GetParam();
  Rng rng(m + n + k);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor bt = Tensor::randn({n, k}, rng);
  Tensor c({m, n}), ref({m, n});
  gemm_nt(ctx, m, n, k, 1.f, a.data(), bt.data(), 0.f, c.data());
  rule_gemm(m, n, k, 1.f, {a.data(), k, 1}, {bt.data(), 1, k}, 0.f, ref.data(), n);
  EXPECT_TRUE(same_bits(c, ref));
}

TEST_P(GemmTest, TNMatchesNaive) {
  exec::ExecContext ctx(1);
  const auto [m, n, k] = GetParam();
  Rng rng(3 * m + 5 * n + 7 * k);
  Tensor at = Tensor::randn({k, m}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n}), ref({m, n});
  gemm_tn(ctx, m, n, k, 1.f, at.data(), b.data(), 0.f, c.data());
  rule_gemm(m, n, k, 1.f, {at.data(), 1, m}, {b.data(), n, 1}, 0.f, ref.data(), n);
  EXPECT_TRUE(same_bits(c, ref));
}

TEST_P(GemmTest, AccumulateBetaOne) {
  exec::ExecContext ctx(1);
  const auto [m, n, k] = GetParam();
  Rng rng(9);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c = Tensor::full({m, n}, 1.f);
  Tensor ref = Tensor::full({m, n}, 1.f);
  gemm_nn(ctx, m, n, k, 1.f, a.data(), b.data(), 1.f, c.data());
  rule_gemm(m, n, k, 1.f, {a.data(), k, 1}, {b.data(), n, 1}, 1.f, ref.data(), n);
  EXPECT_TRUE(same_bits(c, ref));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmTest,
                         ::testing::Values(GemmDims{1, 1, 1}, GemmDims{3, 5, 7},
                                           GemmDims{16, 16, 16}, GemmDims{65, 33, 17},
                                           GemmDims{128, 64, 300},
                                           GemmDims{7, 130, 70}));

// Every entry point and the strided driver, bitwise against the rule, at
// shapes on both sides of the 6 x 16 register tile and the 48 x 256 macro
// tile, for each k and beta. C starts from random values (and a NaN when
// beta == 0, which the rule must discard).
struct GemmRuleCase {
  std::int64_t m, n;
};

class GemmRuleTest
    : public ::testing::TestWithParam<std::tuple<GemmRuleCase, std::int64_t, float>> {};

TEST_P(GemmRuleTest, EveryEntryPointFollowsTheRule) {
  const auto [dims, k, beta] = GetParam();
  const auto [m, n] = dims;
  exec::ExecContext ctx(1);
  Rng rng(static_cast<std::uint64_t>(m * 1000 + n * 10 + k));
  Tensor a = Tensor::randn({m, k}, rng);    // A, row-major
  Tensor at = Tensor::randn({k, m}, rng);   // A^T, row-major
  Tensor b = Tensor::randn({k, n}, rng);    // B, row-major
  Tensor bt = Tensor::randn({n, k}, rng);   // B^T, row-major
  Tensor c0 = Tensor::randn({m, n}, rng);
  if (beta == 0.f) c0.data()[0] = std::nanf("");

  auto check = [&](const char* what, MatrixRef av, MatrixRef bv, float alpha,
                   auto&& run) {
    Tensor c = c0.clone(), ref = c0.clone();
    run(c.data());
    rule_gemm(m, n, k, alpha, av, bv, beta, ref.data(), n);
    EXPECT_TRUE(same_bits(c, ref)) << what;
  };
  check("nn", {a.data(), k, 1}, {b.data(), n, 1}, 1.f, [&](float* c) {
    gemm_nn(ctx, m, n, k, 1.f, a.data(), b.data(), beta, c);
  });
  check("nt", {a.data(), k, 1}, {bt.data(), 1, k}, 1.f, [&](float* c) {
    gemm_nt(ctx, m, n, k, 1.f, a.data(), bt.data(), beta, c);
  });
  check("tn", {at.data(), 1, m}, {b.data(), n, 1}, 1.f, [&](float* c) {
    gemm_tn(ctx, m, n, k, 1.f, at.data(), b.data(), beta, c);
  });
  // The strided driver with both operands transposed and alpha != 1.
  check("gemm", {at.data(), 1, m}, {bt.data(), 1, k}, 0.75f, [&](float* c) {
    gemm(ctx, m, n, k, 0.75f, {at.data(), 1, m}, {bt.data(), 1, k}, beta, c, n);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmRuleTest,
    ::testing::Combine(::testing::Values(GemmRuleCase{1, 1}, GemmRuleCase{5, 15},
                                         GemmRuleCase{6, 16}, GemmRuleCase{7, 17},
                                         GemmRuleCase{13, 40}, GemmRuleCase{49, 257}),
                       ::testing::Values<std::int64_t>(1, 4, 16, 17, 64),
                       ::testing::Values(0.f, 1.f, 0.5f)));

TEST(Gemm, LongKCrossesTheKBlockAndLdcIsHonoured) {
  // k = 300 spans two k blocks (C is stored and reloaded in between); C is
  // a window of a wider matrix whose other columns must stay untouched.
  exec::ExecContext ctx(1);
  const std::int64_t m = 9, n = 20, k = 300, ldc = 31;
  Rng rng(4);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c = Tensor::randn({m, ldc}, rng);
  Tensor ref = c.clone();
  gemm(ctx, m, n, k, 1.f, {a.data(), k, 1}, {b.data(), n, 1}, 1.f, c.data() + 3, ldc);
  rule_gemm(m, n, k, 1.f, {a.data(), k, 1}, {b.data(), n, 1}, 1.f, ref.data() + 3, ldc);
  EXPECT_TRUE(same_bits(c, ref));
}

// --- BLAS-1 helpers --------------------------------------------------------

TEST(Ops, Axpy) {
  Tensor x = Tensor::from_values({3}, {1, 2, 3});
  Tensor y = Tensor::from_values({3}, {10, 20, 30});
  axpy(2.f, x.span(), y.span());
  EXPECT_EQ(y.at(0), 12.f);
  EXPECT_EQ(y.at(1), 24.f);
  EXPECT_EQ(y.at(2), 36.f);
}

TEST(Ops, ScaleAndAdd) {
  Tensor x = Tensor::from_values({2}, {2, 4});
  scale(0.5f, x.span());
  EXPECT_EQ(x.at(0), 1.f);
  Tensor a = Tensor::from_values({2}, {1, 2});
  Tensor out({2});
  add(x.span(), a.span(), out.span());
  EXPECT_EQ(out.at(0), 2.f);
  EXPECT_EQ(out.at(1), 4.f);
}

TEST(Ops, Reductions) {
  Tensor x = Tensor::from_values({4}, {1, -2, 3, -0.5f});
  EXPECT_DOUBLE_EQ(sum(x.span()), 1.5);
  EXPECT_NEAR(sum_sq(x.span()), 1 + 4 + 9 + 0.25, 1e-9);
  EXPECT_EQ(max_abs(x.span()), 3.f);
  EXPECT_EQ(count_below(x.span(), 1.f), 2);  // |1| and |-0.5|
}

TEST(Ops, ReluForwardBackward) {
  Tensor x = Tensor::from_values({4}, {-1, 0, 2, -3});
  Tensor y({4});
  relu(x.span(), y.span());
  EXPECT_EQ(y.at(0), 0.f);
  EXPECT_EQ(y.at(2), 2.f);
  Tensor dy = Tensor::full({4}, 1.f);
  Tensor dx({4});
  relu_backward(x.span(), dy.span(), dx.span());
  EXPECT_EQ(dx.at(0), 0.f);
  EXPECT_EQ(dx.at(1), 0.f);  // x == 0 -> gradient 0 by convention
  EXPECT_EQ(dx.at(2), 1.f);
}

// --- im2col / col2im -------------------------------------------------------

TEST(Im2col, KnownSmallCase) {
  // 1 channel, 3x3 input, 2x2 kernel, stride 1, no pad -> 4 rows x 4 cols.
  ConvGeom g{1, 3, 3, 2, 1, 0};
  Tensor x = Tensor::from_values({1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  ASSERT_EQ(g.col_rows(), 4);
  ASSERT_EQ(g.col_cols(), 4);
  Tensor col({4, 4});
  im2col(g, x.data(), col.data());
  // Row 0 = kernel offset (0,0): top-left of each receptive field.
  EXPECT_EQ(col.at(0, 0), 1.f);
  EXPECT_EQ(col.at(0, 1), 2.f);
  EXPECT_EQ(col.at(0, 2), 4.f);
  EXPECT_EQ(col.at(0, 3), 5.f);
  // Row 3 = offset (1,1): bottom-right of each field.
  EXPECT_EQ(col.at(3, 0), 5.f);
  EXPECT_EQ(col.at(3, 3), 9.f);
}

TEST(Im2col, PaddingFillsZero) {
  ConvGeom g{1, 2, 2, 3, 1, 1};
  Tensor x = Tensor::from_values({1, 2, 2}, {1, 2, 3, 4});
  Tensor col({g.col_rows(), g.col_cols()});
  im2col(g, x.data(), col.data());
  // Offset (0,0) of output (0,0) reads input (-1,-1) -> 0.
  EXPECT_EQ(col.at(0, 0), 0.f);
  // Offset (1,1) of output (0,0) reads input (0,0) -> 1.
  EXPECT_EQ(col.at(4, 0), 1.f);
}

TEST(Im2col, BlockLoweringMatchesPerSample) {
  // A block of samples lowers side by side (sample s owns columns
  // [s*Ho*Wo, (s+1)*Ho*Wo) of every row), a row range lowers just those
  // rows, and the block's col2im gives each sample its own col2im.
  for (const ConvGeom g : {ConvGeom{3, 5, 5, 3, 2, 1}, ConvGeom{2, 2, 2, 3, 1, 1},
                           ConvGeom{4, 3, 4, 1, 1, 0}}) {
    const std::int64_t samples = 3, rows = g.col_rows(), cols = g.col_cols();
    const std::int64_t in_sample = g.in_c * g.in_h * g.in_w;
    Rng rng(static_cast<std::uint64_t>(rows * 10 + cols));
    Tensor x = Tensor::randn({samples, g.in_c, g.in_h, g.in_w}, rng);
    Tensor block({rows, samples * cols});
    im2col(g, x.data(), samples, 0, rows, block.data());
    Tensor part({rows - 1, samples * cols});
    im2col(g, x.data(), samples, 1, rows, part.data());
    Tensor dx_block({samples, g.in_c, g.in_h, g.in_w});
    col2im(g, block.data(), samples, dx_block.data());
    for (std::int64_t s = 0; s < samples; ++s) {
      Tensor one({rows, cols});
      im2col(g, x.data() + s * in_sample, one.data());
      Tensor dx_one({g.in_c, g.in_h, g.in_w});
      col2im(g, one.data(), dx_one.data());
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t q = 0; q < cols; ++q) {
          EXPECT_EQ(block.at(r, s * cols + q), one.at(r, q));
          if (r > 0) {
            EXPECT_EQ(part.at(r - 1, s * cols + q), one.at(r, q));
          }
        }
      }
      EXPECT_EQ(std::memcmp(dx_block.data() + s * in_sample, dx_one.data(),
                            static_cast<std::size_t>(in_sample) * sizeof(float)),
                0);
    }
  }
}

TEST(Im2col, BlockSamplesReachTheColumnTargetCappedAtTheBatch) {
  const ConvGeom g8{8, 8, 8, 3, 1, 1};  // 64 columns a sample
  EXPECT_EQ(g8.block_samples(64), kLoweringColumns / 64);
  const ConvGeom g2{8, 2, 2, 3, 1, 1};  // 4 columns a sample
  EXPECT_EQ(g2.block_samples(64), kLoweringColumns / 4);
  EXPECT_EQ(g2.block_samples(13), 13);
  const ConvGeom g32{3, 32, 32, 3, 1, 1};  // wider than the target alone
  EXPECT_EQ(g32.block_samples(64), 1);
}

struct ConvGeomCase {
  std::int64_t c, h, w, k, s, p;
};

class Im2colAdjointTest : public ::testing::TestWithParam<ConvGeomCase> {};

// <im2col(x), y> == <x, col2im(y)> for all x, y: the defining property of an
// adjoint pair, which is exactly what conv backward relies on.
TEST_P(Im2colAdjointTest, AdjointProperty) {
  const auto [c, h, w, k, s, p] = GetParam();
  ConvGeom g{c, h, w, k, s, p};
  Rng rng(c * 1000 + h * 100 + k);
  Tensor x = Tensor::randn({c, h, w}, rng);
  Tensor y = Tensor::randn({g.col_rows(), g.col_cols()}, rng);
  Tensor col({g.col_rows(), g.col_cols()});
  im2col(g, x.data(), col.data());
  Tensor xg({c, h, w});
  col2im(g, y.data(), xg.data());
  double lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < col.numel(); ++i) {
    lhs += double(col.data()[i]) * y.data()[i];
  }
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += double(x.data()[i]) * xg.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjointTest,
    ::testing::Values(ConvGeomCase{1, 4, 4, 3, 1, 1}, ConvGeomCase{3, 8, 8, 3, 1, 1},
                      ConvGeomCase{2, 8, 8, 3, 2, 1}, ConvGeomCase{4, 5, 7, 1, 1, 0},
                      ConvGeomCase{2, 9, 9, 5, 2, 2}, ConvGeomCase{1, 6, 6, 7, 1, 3},
                      ConvGeomCase{3, 16, 16, 3, 2, 1}));

TEST(Im2col, GeometryFormulas) {
  ConvGeom g{8, 32, 32, 3, 2, 1};
  EXPECT_EQ(g.out_h(), 16);
  EXPECT_EQ(g.out_w(), 16);
  EXPECT_EQ(g.col_rows(), 72);
  EXPECT_EQ(g.col_cols(), 256);
}

}  // namespace
}  // namespace pt
