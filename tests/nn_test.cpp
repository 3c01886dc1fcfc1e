// Layer tests: numerical gradient checks (central finite differences)
// against every layer's backward, plus behavioural unit tests and the
// channel-surgery (shrink) invariants the pruning machinery relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/channel_index.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pool.h"
#include "tensor/ops.h"

namespace pt::nn {
namespace {

/// Scalar probe loss: L = <w, layer(x)> with fixed random w, so dL/d(out)=w.
struct Probe {
  Tensor w;
  double loss(const Tensor& out) const {
    double acc = 0;
    for (std::int64_t i = 0; i < out.numel(); ++i) {
      acc += double(w.data()[i]) * out.data()[i];
    }
    return acc;
  }
};

/// Central-difference check of dL/dx returned by backward().
void check_input_grad(Layer& layer, Tensor& x, double tol = 2e-2) {
  exec::ExecContext ctx(1);
  Rng rng(99);
  Tensor out = layer.forward(ctx, x, true);
  Probe probe{Tensor::randn(out.shape(), rng)};
  layer.zero_grad();
  Tensor dx = layer.backward(ctx, probe.w);
  ASSERT_EQ(dx.shape(), x.shape());

  const float eps = 1e-2f;
  // Finite differences must evaluate the same function backward
  // differentiates — the *training-mode* forward (this matters for batch
  // norm, whose inference path uses running statistics instead).
  // Check a deterministic subset of coordinates to keep runtime bounded.
  const std::int64_t stride = std::max<std::int64_t>(1, x.numel() / 64);
  for (std::int64_t i = 0; i < x.numel(); i += stride) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double lp = probe.loss(layer.forward(ctx, x, true));
    x.data()[i] = orig - eps;
    const double lm = probe.loss(layer.forward(ctx, x, true));
    x.data()[i] = orig;
    const double fd = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx.data()[i], fd, tol * std::max(1.0, std::fabs(fd)))
        << "input grad mismatch at flat index " << i;
  }
}

/// Central-difference check of every parameter gradient.
void check_param_grads(Layer& layer, Tensor& x, double tol = 2e-2) {
  exec::ExecContext ctx(1);
  Rng rng(7);
  Tensor out = layer.forward(ctx, x, true);
  Probe probe{Tensor::randn(out.shape(), rng)};
  layer.zero_grad();
  (void)layer.backward(ctx, probe.w);
  const float eps = 1e-2f;
  for (Param* p : layer.params()) {
    const std::int64_t stride = std::max<std::int64_t>(1, p->value.numel() / 48);
    for (std::int64_t i = 0; i < p->value.numel(); i += stride) {
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      const double lp = probe.loss(layer.forward(ctx, x, true));
      p->value.data()[i] = orig - eps;
      const double lm = probe.loss(layer.forward(ctx, x, true));
      p->value.data()[i] = orig;
      const double fd = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p->grad.data()[i], fd, tol * std::max(1.0, std::fabs(fd)))
          << p->name << " grad mismatch at " << i;
    }
  }
}

// --- Conv2d ----------------------------------------------------------------

struct ConvCase {
  std::int64_t n, c, h, w, k, kernel, stride, pad;
};

class ConvGradTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradTest, InputGradMatchesFiniteDifference) {
  const auto p = GetParam();
  Rng rng(1);
  Conv2d conv(p.c, p.k, p.kernel, p.stride, p.pad, rng);
  Tensor x = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
  check_input_grad(conv, x);
}

TEST_P(ConvGradTest, WeightGradMatchesFiniteDifference) {
  const auto p = GetParam();
  Rng rng(2);
  Conv2d conv(p.c, p.k, p.kernel, p.stride, p.pad, rng);
  Tensor x = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
  check_param_grads(conv, x);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGradTest,
    ::testing::Values(ConvCase{2, 3, 6, 6, 4, 3, 1, 1}, ConvCase{1, 2, 8, 8, 3, 3, 2, 1},
                      ConvCase{2, 4, 5, 5, 2, 1, 1, 0}, ConvCase{1, 1, 7, 7, 2, 5, 1, 2},
                      ConvCase{3, 2, 4, 4, 2, 3, 1, 1}));

// Conv2d against a direct per-sample reference of the GEMM rule's chains:
// y[n,k,q] is one FMA chain over (c, r, s) from +0; dW[k,c,r,s] one chain
// over (sample, position) in order onto the zeroed gradient; dx sums, per
// input element, the contributions of the rows (c, r, s) in ascending
// order, each a chain over k from +0. Padding reads as an explicit 0.
struct ConvReference {
  Tensor y, dw, dx;
};

ConvReference conv_reference(const Tensor& x, const Tensor& w, const Tensor& dy,
                             std::int64_t stride, std::int64_t pad) {
  const std::int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2],
                     wd = x.shape()[3];
  const std::int64_t k = w.shape()[0], ks = w.shape()[2];
  const std::int64_t ho = dy.shape()[2], wo = dy.shape()[3];
  auto in = [&](std::int64_t i, std::int64_t ch, std::int64_t ih, std::int64_t iw) {
    return ih < 0 || ih >= h || iw < 0 || iw >= wd ? 0.f : x.at(i, ch, ih, iw);
  };
  ConvReference ref{Tensor({n, k, ho, wo}), Tensor(w.shape()), Tensor(x.shape())};
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t o = 0; o < k; ++o)
      for (std::int64_t oh = 0; oh < ho; ++oh)
        for (std::int64_t ow = 0; ow < wo; ++ow) {
          float acc = 0.f;
          for (std::int64_t ch = 0; ch < c; ++ch)
            for (std::int64_t r = 0; r < ks; ++r)
              for (std::int64_t t = 0; t < ks; ++t)
                acc = std::fma(w.at(o, ch, r, t),
                               in(i, ch, oh * stride - pad + r, ow * stride - pad + t), acc);
          ref.y.at(i, o, oh, ow) = acc;
        }
  for (std::int64_t o = 0; o < k; ++o)
    for (std::int64_t ch = 0; ch < c; ++ch)
      for (std::int64_t r = 0; r < ks; ++r)
        for (std::int64_t t = 0; t < ks; ++t) {
          float acc = 0.f;
          for (std::int64_t i = 0; i < n; ++i)
            for (std::int64_t oh = 0; oh < ho; ++oh)
              for (std::int64_t ow = 0; ow < wo; ++ow)
                acc = std::fma(dy.at(i, o, oh, ow),
                               in(i, ch, oh * stride - pad + r, ow * stride - pad + t), acc);
          ref.dw.at(o, ch, r, t) = acc;
        }
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t ch = 0; ch < c; ++ch)
      for (std::int64_t r = 0; r < ks; ++r)
        for (std::int64_t t = 0; t < ks; ++t)
          for (std::int64_t oh = 0; oh < ho; ++oh)
            for (std::int64_t ow = 0; ow < wo; ++ow) {
              const std::int64_t ih = oh * stride - pad + r, iw = ow * stride - pad + t;
              if (ih < 0 || ih >= h || iw < 0 || iw >= wd) continue;
              float dcol = 0.f;
              for (std::int64_t o = 0; o < k; ++o)
                dcol = std::fma(w.at(o, ch, r, t), dy.at(i, o, oh, ow), dcol);
              ref.dx.at(i, ch, ih, iw) += dcol;
            }
  return ref;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

class ConvBitwiseTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvBitwiseTest, ForwardAndBackwardMatchPerSampleChains) {
  const auto p = GetParam();
  Rng rng(p.n * 131 + p.c * 17 + p.kernel);
  Conv2d conv(p.c, p.k, p.kernel, p.stride, p.pad, rng);
  // A pruned-looking layer: one zeroed input channel of W, one zeroed
  // output channel of W, and one all-zero input channel of x.
  Tensor& w = conv.weight().value;
  const std::int64_t rs = p.kernel * p.kernel;
  for (std::int64_t o = 0; o < p.k; ++o)
    for (std::int64_t q = 0; q < rs; ++q) w.data()[(o * p.c) * rs + q] = 0.f;
  for (std::int64_t q = 0; q < p.c * rs; ++q) w.data()[(p.k - 1) * p.c * rs + q] = 0.f;
  Tensor x = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
  for (std::int64_t i = 0; i < p.n; ++i)
    for (std::int64_t q = 0; q < p.h * p.w; ++q)
      x.data()[(i * p.c + p.c - 1) * p.h * p.w + q] = 0.f;
  const Shape out = conv.output_shape(x.shape());
  Tensor dy = Tensor::randn(out, rng);
  const ConvReference ref = conv_reference(x, w, dy, p.stride, p.pad);

  for (int threads : {1, 3}) {
    exec::ExecContext ctx(threads);
    conv.zero_grad();
    Tensor y = conv.forward(ctx, x, true);
    Tensor dx = conv.backward(ctx, dy);
    EXPECT_TRUE(same_bits(y, ref.y)) << threads << " threads: y";
    EXPECT_TRUE(same_bits(conv.weight().grad, ref.dw)) << threads << " threads: dW";
    EXPECT_TRUE(same_bits(dx, ref.dx)) << threads << " threads: dx";
  }
}

// n = 13 and 40 leave a partial last lowering block; 4x4 inputs at stride
// 2 and 2x2 inputs give 2x2 outputs, where one block spans many samples.
INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvBitwiseTest,
    ::testing::Values(ConvCase{13, 3, 8, 8, 5, 3, 1, 1}, ConvCase{13, 4, 4, 4, 7, 3, 2, 1},
                      ConvCase{6, 5, 6, 6, 8, 1, 1, 0}, ConvCase{9, 6, 2, 2, 17, 3, 1, 1},
                      ConvCase{5, 2, 9, 9, 3, 1, 2, 0}, ConvCase{40, 3, 2, 2, 4, 3, 1, 1}));

TEST(Conv2d, OutputShape) {
  Rng rng(3);
  Conv2d conv(3, 8, 3, 2, 1, rng);
  EXPECT_EQ(conv.output_shape({4, 3, 16, 16}), (Shape{4, 8, 8, 8}));
}

TEST(Conv2d, BiasAddsPerChannel) {
  exec::ExecContext ctx(1);
  Rng rng(4);
  Conv2d conv(1, 2, 1, 1, 0, rng, /*bias=*/true);
  conv.weight().value.fill(0.f);
  conv.bias().value.at(0) = 1.5f;
  conv.bias().value.at(1) = -2.f;
  Tensor x = Tensor::randn({1, 1, 3, 3}, rng);
  Tensor y = conv.forward(ctx, x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 2, 2), -2.f);
}

TEST(Conv2d, BiasGradCheck) {
  Rng rng(5);
  Conv2d conv(2, 3, 3, 1, 1, rng, /*bias=*/true);
  Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
  check_param_grads(conv, x);
}

TEST(Conv2d, RejectsWrongChannelCount) {
  exec::ExecContext ctx(1);
  Rng rng(6);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  Tensor x({1, 2, 8, 8});
  EXPECT_THROW(conv.forward(ctx, x, false), std::invalid_argument);
}

TEST(Conv2d, BackwardWithoutForwardThrows) {
  exec::ExecContext ctx(1);
  Rng rng(7);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  EXPECT_THROW(conv.backward(ctx, Tensor({1, 1, 1, 1})), std::logic_error);
}

TEST(Conv2d, ChannelMaxAbsGroups) {
  Rng rng(8);
  Conv2d conv(2, 2, 1, 1, 0, rng);
  // weight[k][c][0][0]
  conv.weight().value = Tensor::from_values({2, 2, 1, 1}, {0.1f, -0.9f, 0.2f, 0.3f});
  conv.weight().init_state();
  EXPECT_FLOAT_EQ(conv.in_channel_max_abs(0), 0.2f);   // |0.1|, |0.2|
  EXPECT_FLOAT_EQ(conv.in_channel_max_abs(1), 0.9f);   // |-0.9|, |0.3|
  EXPECT_FLOAT_EQ(conv.out_channel_max_abs(0), 0.9f);  // |0.1|, |-0.9|
  EXPECT_FLOAT_EQ(conv.out_channel_max_abs(1), 0.3f);
}

TEST(Conv2d, ZeroSmallWeights) {
  Rng rng(9);
  Conv2d conv(1, 1, 2, 1, 0, rng);
  conv.weight().value = Tensor::from_values({1, 1, 2, 2}, {1e-5f, -1e-5f, 0.5f, 1e-3f});
  conv.zero_small_weights(1e-4f);
  EXPECT_EQ(conv.weight().value.at(0, 0, 0, 0), 0.f);
  EXPECT_EQ(conv.weight().value.at(0, 0, 0, 1), 0.f);
  EXPECT_EQ(conv.weight().value.at(0, 0, 1, 0), 0.5f);
  EXPECT_EQ(conv.weight().value.at(0, 0, 1, 1), 1e-3f);
}

TEST(Conv2d, ShrinkSlicesWeightGradMomentumConsistently) {
  Rng rng(10);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  // Tag grad/momentum so we can verify slices came from the right place.
  for (std::int64_t i = 0; i < conv.weight().grad.numel(); ++i) {
    conv.weight().grad.data()[i] = float(i);
    conv.weight().momentum.data()[i] = float(-i);
  }
  const float w_before = conv.weight().value.at(2, 1, 0, 0);
  conv.shrink({1, 2}, {0, 2});
  EXPECT_EQ(conv.in_channels(), 2);
  EXPECT_EQ(conv.out_channels(), 2);
  EXPECT_EQ(conv.weight().value.shape(), (Shape{2, 2, 3, 3}));
  // New [1][0] was old [2][1].
  EXPECT_FLOAT_EQ(conv.weight().value.at(1, 0, 0, 0), w_before);
  const float expected_grad = float(((2 * 3 + 1) * 3 + 0) * 3 + 0);
  EXPECT_FLOAT_EQ(conv.weight().grad.at(1, 0, 0, 0), expected_grad);
  EXPECT_FLOAT_EQ(conv.weight().momentum.at(1, 0, 0, 0), -expected_grad);
}

TEST(Conv2d, ShrinkPreservesFunctionOnKeptChannels) {
  // If removed in/out channels have zero weights, the shrunk conv computes
  // exactly the same values on the kept channels.
  exec::ExecContext ctx(1);
  Rng rng(11);
  Conv2d conv(3, 3, 3, 1, 1, rng);
  // Zero everything touching input channel 1 and output channel 2.
  for (std::int64_t k = 0; k < 3; ++k)
    for (std::int64_t q = 0; q < 9; ++q)
      conv.weight().value.data()[(k * 3 + 1) * 9 + q] = 0.f;
  for (std::int64_t c = 0; c < 3; ++c)
    for (std::int64_t q = 0; q < 9; ++q)
      conv.weight().value.data()[(2 * 3 + c) * 9 + q] = 0.f;
  Tensor x = Tensor::randn({2, 3, 5, 5}, rng);
  Tensor y_full = conv.forward(ctx, x, false);

  conv.shrink({0, 2}, {0, 1});
  // Gather kept input channels 0, 2.
  Tensor xs({2, 2, 5, 5});
  for (std::int64_t n = 0; n < 2; ++n)
    for (std::int64_t q = 0; q < 25; ++q) {
      xs.data()[(n * 2 + 0) * 25 + q] = x.data()[(n * 3 + 0) * 25 + q];
      xs.data()[(n * 2 + 1) * 25 + q] = x.data()[(n * 3 + 2) * 25 + q];
    }
  Tensor y_small = conv.forward(ctx, xs, false);
  for (std::int64_t n = 0; n < 2; ++n)
    for (std::int64_t k = 0; k < 2; ++k)
      for (std::int64_t q = 0; q < 25; ++q) {
        EXPECT_NEAR(y_small.data()[(n * 2 + k) * 25 + q],
                    y_full.data()[(n * 3 + k) * 25 + q], 1e-5f);
      }
}

TEST(Conv2d, ShrinkEmptyKeepSetThrows) {
  Rng rng(12);
  Conv2d conv(2, 2, 1, 1, 0, rng);
  EXPECT_THROW(conv.shrink({}, {0}), std::invalid_argument);
  EXPECT_THROW(conv.shrink({0}, {}), std::invalid_argument);
}

// --- BatchNorm2d -------------------------------------------------------------

TEST(BatchNorm2d, NormalizesToZeroMeanUnitVar) {
  exec::ExecContext ctx(1);
  Rng rng(20);
  BatchNorm2d bn(3);
  Tensor x = Tensor::randn({4, 3, 5, 5}, rng, 2.f, 3.f);
  Tensor y = bn.forward(ctx, x, true);
  for (std::int64_t c = 0; c < 3; ++c) {
    double mean = 0, var = 0;
    for (std::int64_t n = 0; n < 4; ++n)
      for (std::int64_t q = 0; q < 25; ++q) mean += y.data()[(n * 3 + c) * 25 + q];
    mean /= 100.0;
    for (std::int64_t n = 0; n < 4; ++n)
      for (std::int64_t q = 0; q < 25; ++q) {
        const double d = y.data()[(n * 3 + c) * 25 + q] - mean;
        var += d * d;
      }
    var /= 100.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, RunningStatsConvergeToBatchStats) {
  exec::ExecContext ctx(1);
  Rng rng(21);
  BatchNorm2d bn(2, /*momentum=*/0.5f);
  Tensor x = Tensor::randn({8, 2, 4, 4}, rng, -1.f, 2.f);
  // Repeated forwards on one fixed batch: the EMA must converge to that
  // batch's actual statistics (not the population parameters).
  double mean = 0, var = 0;
  for (std::int64_t n = 0; n < 8; ++n)
    for (std::int64_t q = 0; q < 16; ++q) mean += x.data()[(n * 2 + 0) * 16 + q];
  mean /= 128.0;
  for (std::int64_t n = 0; n < 8; ++n)
    for (std::int64_t q = 0; q < 16; ++q) {
      const double d = x.data()[(n * 2 + 0) * 16 + q] - mean;
      var += d * d;
    }
  var /= 128.0;
  for (int i = 0; i < 20; ++i) bn.forward(ctx, x, true);
  EXPECT_NEAR(bn.running_mean().at(0), mean, 1e-3);
  EXPECT_NEAR(bn.running_var().at(0), var, 1e-2);
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  exec::ExecContext ctx(1);
  Rng rng(22);
  BatchNorm2d bn(1);
  bn.running_mean().at(0) = 5.f;
  bn.running_var().at(0) = 4.f;
  Tensor x = Tensor::full({1, 1, 2, 2}, 7.f);
  Tensor y = bn.forward(ctx, x, false);
  // (7 - 5) / sqrt(4) = 1.
  EXPECT_NEAR(y.at(0, 0, 0, 0), 1.f, 1e-3f);
}

TEST(BatchNorm2d, InputGradCheck) {
  Rng rng(23);
  BatchNorm2d bn(3);
  Tensor x = Tensor::randn({3, 3, 4, 4}, rng);
  check_input_grad(bn, x, 3e-2);
}

TEST(BatchNorm2d, ParamGradCheck) {
  Rng rng(24);
  BatchNorm2d bn(2);
  Tensor x = Tensor::randn({4, 2, 3, 3}, rng);
  check_param_grads(bn, x, 3e-2);
}

TEST(BatchNorm2d, ShrinkSlicesAllState) {
  BatchNorm2d bn(4);
  for (std::int64_t c = 0; c < 4; ++c) {
    bn.gamma().value.at(c) = float(c);
    bn.running_mean().at(c) = 10.f + float(c);
  }
  bn.shrink({1, 3});
  EXPECT_EQ(bn.channels(), 2);
  EXPECT_FLOAT_EQ(bn.gamma().value.at(0), 1.f);
  EXPECT_FLOAT_EQ(bn.gamma().value.at(1), 3.f);
  EXPECT_FLOAT_EQ(bn.running_mean().at(1), 13.f);
  EXPECT_THROW(bn.shrink({}), std::invalid_argument);
}

// --- ReLU / pooling ----------------------------------------------------------

TEST(ReLU, GradCheck) {
  Rng rng(30);
  ReLU relu_layer;
  Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  // Nudge values away from 0 where ReLU is non-differentiable.
  for (float& v : x.span()) {
    if (std::fabs(v) < 0.05f) v = 0.1f;
  }
  check_input_grad(relu_layer, x);
}

TEST(MaxPool2d, ForwardPicksMaxAndRoutesGrad) {
  exec::ExecContext ctx(1);
  MaxPool2d pool(2);
  Tensor x = Tensor::from_values({1, 1, 2, 2}, {1, 4, 3, 2});
  Tensor y = pool.forward(ctx, x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_EQ(y.at(0, 0, 0, 0), 4.f);
  Tensor dy = Tensor::full({1, 1, 1, 1}, 2.f);
  Tensor dx = pool.backward(ctx, dy);
  EXPECT_EQ(dx.at(0, 0, 0, 1), 2.f);  // grad at argmax
  EXPECT_EQ(dx.at(0, 0, 0, 0), 0.f);
}

TEST(MaxPool2d, GradCheck) {
  Rng rng(31);
  MaxPool2d pool(2);
  Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  check_input_grad(pool, x);
}

TEST(MaxPool2d, RejectsIndivisibleInput) {
  exec::ExecContext ctx(1);
  MaxPool2d pool(2);
  Tensor x({1, 1, 3, 4});
  EXPECT_THROW(pool.forward(ctx, x, false), std::invalid_argument);
}

TEST(GlobalAvgPool, ForwardAveragesChannel) {
  exec::ExecContext ctx(1);
  GlobalAvgPool gap;
  Tensor x = Tensor::from_values({1, 2, 1, 2}, {1, 3, 10, 20});
  Tensor y = gap.forward(ctx, x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 15.f);
}

TEST(GlobalAvgPool, GradCheck) {
  Rng rng(32);
  GlobalAvgPool gap;
  Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  check_input_grad(gap, x);
}

// --- Linear -------------------------------------------------------------------

TEST(Linear, GradChecks) {
  Rng rng(40);
  Linear fc(6, 4, rng);
  Tensor x = Tensor::randn({3, 6}, rng);
  check_input_grad(fc, x);
  Linear fc2(5, 3, rng);
  Tensor x2 = Tensor::randn({2, 5}, rng);
  check_param_grads(fc2, x2);
}

TEST(Linear, KnownValue) {
  exec::ExecContext ctx(1);
  Rng rng(41);
  Linear fc(2, 1, rng);
  fc.weight().value = Tensor::from_values({1, 2}, {2.f, -1.f});
  fc.bias().value.at(0) = 0.5f;
  Tensor x = Tensor::from_values({1, 2}, {3.f, 4.f});
  Tensor y = fc.forward(ctx, x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2 * 3 - 4 + 0.5f);
}

TEST(Linear, InFeatureMaxAbsAndShrink) {
  Rng rng(42);
  Linear fc(3, 2, rng);
  fc.weight().value = Tensor::from_values({2, 3}, {0.1f, 2.f, -3.f, 0.2f, -1.f, 0.5f});
  EXPECT_FLOAT_EQ(fc.in_feature_max_abs(0), 0.2f);
  EXPECT_FLOAT_EQ(fc.in_feature_max_abs(2), 3.f);
  fc.shrink_inputs({0, 2});
  EXPECT_EQ(fc.in_features(), 2);
  EXPECT_FLOAT_EQ(fc.weight().value.at(0, 1), -3.f);
  EXPECT_FLOAT_EQ(fc.weight().value.at(1, 0), 0.2f);
}

// --- SoftmaxCrossEntropy --------------------------------------------------------

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogK) {
  SoftmaxCrossEntropy loss;
  Tensor logits({4, 10});
  const double l = loss.forward(logits, {0, 1, 2, 3});
  EXPECT_NEAR(l, std::log(10.0), 1e-6);
}

TEST(SoftmaxCrossEntropy, PerfectPredictionLowLoss) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 3});
  logits.at(0, 1) = 50.f;
  EXPECT_LT(loss.forward(logits, {1}), 1e-6);
  EXPECT_EQ(loss.correct(), 1);
}

TEST(SoftmaxCrossEntropy, GradMatchesFiniteDifference) {
  Rng rng(50);
  SoftmaxCrossEntropy loss;
  Tensor logits = Tensor::randn({3, 5}, rng);
  std::vector<std::int64_t> labels = {1, 4, 0};
  loss.forward(logits, labels);
  Tensor g = loss.backward();
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    const float orig = logits.data()[i];
    logits.data()[i] = orig + eps;
    const double lp = loss.forward(logits, labels);
    logits.data()[i] = orig - eps;
    const double lm = loss.forward(logits, labels);
    logits.data()[i] = orig;
    EXPECT_NEAR(g.data()[i], (lp - lm) / (2 * eps), 1e-3);
  }
}

TEST(SoftmaxCrossEntropy, CountsCorrect) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 2});
  logits.at(0, 0) = 1.f;  // predicts 0
  logits.at(1, 1) = 1.f;  // predicts 1
  loss.forward(logits, {0, 0});
  EXPECT_EQ(loss.correct(), 1);
}

TEST(SoftmaxCrossEntropy, RejectsBadLabel) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 2});
  EXPECT_THROW(loss.forward(logits, {5}), std::invalid_argument);
}

// --- ChannelSelect / ChannelScatter ----------------------------------------------

TEST(ChannelIndex, SelectGathersChannels) {
  exec::ExecContext ctx(1);
  ChannelSelect sel({2, 0}, 3);
  Tensor x({1, 3, 1, 2});
  for (std::int64_t i = 0; i < 6; ++i) x.data()[i] = float(i);
  Tensor y = sel.forward(ctx, x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 1, 2}));
  EXPECT_EQ(y.at(0, 0, 0, 0), 4.f);  // channel 2
  EXPECT_EQ(y.at(0, 1, 0, 1), 1.f);  // channel 0
}

TEST(ChannelIndex, ScatterPlacesChannelsZeroElsewhere) {
  exec::ExecContext ctx(1);
  ChannelScatter sca({1}, 3);
  Tensor x = Tensor::full({1, 1, 2, 2}, 5.f);
  Tensor y = sca.forward(ctx, x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 3, 2, 2}));
  EXPECT_EQ(y.at(0, 0, 0, 0), 0.f);
  EXPECT_EQ(y.at(0, 1, 0, 0), 5.f);
  EXPECT_EQ(y.at(0, 2, 1, 1), 0.f);
}

TEST(ChannelIndex, SelectScatterAreAdjoint) {
  exec::ExecContext ctx(1);
  Rng rng(60);
  std::vector<std::int64_t> idx = {0, 3, 4};
  ChannelSelect sel(idx, 6);
  ChannelScatter sca(idx, 6);
  Tensor x = Tensor::randn({2, 6, 3, 3}, rng);
  Tensor y = Tensor::randn({2, 3, 3, 3}, rng);
  // <select(x), y> == <x, scatter(y)>
  Tensor sx = sel.forward(ctx, x, false);
  Tensor sy = sca.forward(ctx, y, false);
  double lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < sx.numel(); ++i) lhs += double(sx.data()[i]) * y.data()[i];
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += double(x.data()[i]) * sy.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(ChannelIndex, GradChecks) {
  Rng rng(61);
  ChannelSelect sel({1, 2}, 4);
  Tensor x = Tensor::randn({2, 4, 3, 3}, rng);
  check_input_grad(sel, x);
  ChannelScatter sca({0, 3}, 5);
  Tensor x2 = Tensor::randn({2, 2, 3, 3}, rng);
  check_input_grad(sca, x2);
}

TEST(ChannelIndex, RejectsOutOfRange) {
  EXPECT_THROW(ChannelSelect({5}, 3), std::invalid_argument);
  EXPECT_THROW(ChannelScatter({3}, 3), std::invalid_argument);
}

}  // namespace
}  // namespace pt::nn
