// Engine microbenchmarks (google-benchmark): GEMM, im2col, conv forward/
// backward, batch-norm, allreduce, and a full training iteration. These
// are the kernels whose costs the roofline device model abstracts; the
// microbenchmarks keep the engine honest.
#include <benchmark/benchmark.h>

#include "dist/allreduce.h"
#include "dist/codec_zoo.h"
#include "graph/network.h"
#include "models/builders.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "optim/sgd.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"

namespace pt {
namespace {

void BM_GemmNN(benchmark::State& state) {
  exec::ExecContext ctx(1);
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm_nn(ctx, n, n, n, 1.f, a.data(), b.data(), 0.f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(128)->Arg(256);

void BM_Im2col(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  ConvGeom g{c, 16, 16, 3, 1, 1};
  Rng rng(2);
  Tensor x = Tensor::randn({c, 16, 16}, rng);
  Tensor col({g.col_rows(), g.col_cols()});
  for (auto _ : state) {
    im2col(g, x.data(), col.data());
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(BM_Im2col)->Arg(16)->Arg(64);

void BM_ConvForward(benchmark::State& state) {
  exec::ExecContext ctx(1);
  const std::int64_t ch = state.range(0);
  Rng rng(3);
  nn::Conv2d conv(ch, ch, 3, 1, 1, rng);
  Tensor x = Tensor::randn({8, ch, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(ctx, x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward)->Arg(8)->Arg(32);

void BM_ConvBackward(benchmark::State& state) {
  exec::ExecContext ctx(1);
  const std::int64_t ch = state.range(0);
  Rng rng(4);
  nn::Conv2d conv(ch, ch, 3, 1, 1, rng);
  Tensor x = Tensor::randn({8, ch, 16, 16}, rng);
  Tensor y = conv.forward(ctx, x, true);
  Tensor dy = Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    conv.zero_grad();
    Tensor dx = conv.backward(ctx, dy);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_ConvBackward)->Arg(8)->Arg(32);

void BM_BatchNormTraining(benchmark::State& state) {
  exec::ExecContext ctx(1);
  const std::int64_t ch = state.range(0);
  Rng rng(5);
  nn::BatchNorm2d bn(ch);
  Tensor x = Tensor::randn({16, ch, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = bn.forward(ctx, x, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() * x.numel() * 4 * 3);
}
BENCHMARK(BM_BatchNormTraining)->Arg(16)->Arg(64);

void BM_AllreduceGradients(benchmark::State& state) {
  exec::ExecContext ctx(1);
  const int replicas = static_cast<int>(state.range(0));
  models::ModelConfig mc;
  mc.image_h = 8;
  mc.image_w = 8;
  mc.classes = 4;
  mc.width_mult = 0.25f;
  std::vector<graph::Network> nets;
  for (int i = 0; i < replicas; ++i) {
    nets.push_back(models::build_resnet_basic(8, mc));
  }
  std::vector<graph::Network*> ptrs;
  for (graph::Network& net : nets) ptrs.push_back(&net);
  dist::DenseCodec codec;
  codec.bind(nets.front(), replicas);
  std::vector<double> weights(static_cast<std::size_t>(replicas), 1.0);
  for (auto _ : state) {
    dist::exchange_gradients(codec, ptrs, weights, ctx);
  }
}
BENCHMARK(BM_AllreduceGradients)->Arg(2)->Arg(4);

void BM_TrainingIteration(benchmark::State& state) {
  exec::ExecContext ctx(1);
  models::ModelConfig mc;
  mc.image_h = 8;
  mc.image_w = 8;
  mc.classes = 10;
  mc.width_mult = static_cast<float>(state.range(0)) / 100.f;
  auto net = models::build_resnet_basic(20, mc);
  Rng rng(6);
  Tensor x = Tensor::randn({32, 3, 8, 8}, rng);
  std::vector<std::int64_t> labels;
  for (int i = 0; i < 32; ++i) labels.push_back(i % 10);
  optim::SGD opt(0.1f, 0.9f);
  nn::SoftmaxCrossEntropy loss;
  for (auto _ : state) {
    Tensor out = net.forward(ctx, x, true);
    loss.forward(out, labels);
    net.zero_grad();
    net.backward(ctx, loss.backward());
    opt.step(net.params());
  }
}
BENCHMARK(BM_TrainingIteration)->Arg(25)->Arg(50);

}  // namespace
}  // namespace pt

BENCHMARK_MAIN();
