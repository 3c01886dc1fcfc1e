// Cross-module integration and property tests: topological execution with
// post-construction surgery, the proximal group operator, device-model
// reshape accounting, uneven data-parallel sharding, eval-interval
// semantics, and end-to-end PruneTrain -> gating deployment.
#include <gtest/gtest.h>

#include <cmath>

#include "core/trainer.h"
#include "cost/device.h"
#include "cost/flops.h"
#include "dist/elastic.h"
#include "models/builders.h"
#include "nn/activations.h"
#include "nn/channel_index.h"
#include "nn/linear.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/pool.h"
#include "prune/gating.h"
#include "prune/group_lasso.h"
#include "prune/reconfigure.h"

namespace pt {
namespace {

models::ModelConfig tiny_model() {
  models::ModelConfig cfg;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.classes = 4;
  cfg.width_mult = 0.25f;
  return cfg;
}

// --- Topological execution with out-of-order node ids -------------------------

TEST(TopoOrder, HandlesNodesAppendedMidGraph) {
  // Simulate what channel gating does: append a node late whose output
  // feeds an *earlier* node id. Execution must follow dependencies, not
  // insertion order.
  exec::ExecContext ctx(1);
  graph::Network net;
  Rng rng(1);
  const int input = net.add_input();
  auto c1 = std::make_shared<nn::Conv2d>(2, 4, 3, 1, 1, rng);
  const int n1 = net.add_layer(c1, input);
  auto c2 = std::make_shared<nn::Conv2d>(4, 3, 3, 1, 1, rng);
  const int n2 = net.add_layer(c2, n1);
  net.set_output(n2);
  // Now splice a ChannelSelect between n1 and n2 (appended last).
  auto sel = std::make_shared<nn::ChannelSelect>(std::vector<std::int64_t>{0, 1, 2, 3},
                                                 4);
  const int ns = net.add_layer(sel, n1);
  net.node(n2).inputs[0] = ns;

  const auto order = net.topo_order();
  // ns must come before n2 in the order.
  std::size_t pos_ns = 0, pos_n2 = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == ns) pos_ns = i;
    if (order[i] == n2) pos_n2 = i;
  }
  EXPECT_LT(pos_ns, pos_n2);

  Tensor x = Tensor::randn({1, 2, 8, 8}, rng);
  EXPECT_EQ(net.forward(ctx, x, false).shape(), (Shape{1, 3, 8, 8}));
}

TEST(TopoOrder, BackwardThroughSplicedGraph) {
  exec::ExecContext ctx(1);
  graph::Network net;
  Rng rng(2);
  const int input = net.add_input();
  auto c1 = std::make_shared<nn::Conv2d>(1, 3, 3, 1, 1, rng);
  const int n1 = net.add_layer(c1, input);
  auto gap = std::make_shared<nn::GlobalAvgPool>();
  const int n2 = net.add_layer(gap, n1);
  net.set_output(n2);
  auto sel = std::make_shared<nn::ChannelSelect>(std::vector<std::int64_t>{0, 2}, 3);
  const int ns = net.add_layer(sel, n1);
  net.node(n2).inputs[0] = ns;

  Tensor x = Tensor::randn({2, 1, 5, 5}, rng);
  Tensor y = net.forward(ctx, x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 2}));
  net.zero_grad();
  Tensor dy = Tensor::full({2, 2}, 1.f);
  Tensor dx = net.backward(ctx, dy);
  EXPECT_EQ(dx.shape(), x.shape());
  double norm = 0;
  for (float v : dx.span()) norm += std::fabs(v);
  EXPECT_GT(norm, 0.0);
}

// --- Proximal group operator ----------------------------------------------------

TEST(Proximal, ZeroesGroupWhenKappaExceedsNorm) {
  graph::Network net;
  Rng rng(3);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(1, 2, 1, 1, 0, rng);
  conv->weight().value = Tensor::from_values({2, 1, 1, 1}, {0.1f, 5.f});
  const int c = net.add_layer(conv, input);
  net.set_output(c);
  net.info.first_conv = c;  // only out-groups regularized
  prune::GroupLassoRegularizer reg(net);
  reg.apply_proximal(0.5f);
  auto& w = net.layer_as<nn::Conv2d>(c).weight();
  EXPECT_EQ(w.value.at(0, 0, 0, 0), 0.f);            // |0.1| < kappa -> exactly 0
  EXPECT_NEAR(w.value.at(1, 0, 0, 0), 4.5f, 1e-5f);  // 5 * (1 - 0.5/5)
}

TEST(Proximal, MatchesClosedFormScaling) {
  graph::Network net;
  Rng rng(4);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(1, 1, 2, 1, 0, rng);
  conv->weight().value = Tensor::from_values({1, 1, 2, 2}, {3.f, 0.f, 4.f, 0.f});
  const int c = net.add_layer(conv, input);
  net.set_output(c);
  net.info.first_conv = c;
  prune::GroupLassoRegularizer reg(net);
  reg.apply_proximal(1.f);  // norm 5 -> scale 0.8
  auto& w = net.layer_as<nn::Conv2d>(c).weight();
  EXPECT_NEAR(w.value.at(0, 0, 0, 0), 2.4f, 1e-5f);
  EXPECT_NEAR(w.value.at(0, 0, 1, 0), 3.2f, 1e-5f);
}

TEST(Proximal, IdempotentAtZero) {
  graph::Network net;
  Rng rng(5);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(2, 2, 3, 1, 1, rng);
  conv->weight().value.fill(0.f);
  const int c = net.add_layer(conv, input);
  net.set_output(c);
  net.info.first_conv = -1;
  prune::GroupLassoRegularizer reg(net);
  reg.apply_proximal(0.3f);
  for (float v : net.layer_as<nn::Conv2d>(c).weight().value.span()) {
    EXPECT_EQ(v, 0.f);
  }
}

TEST(Proximal, FirstConvInGroupsExempt) {
  // The stem conv's input-channel groups are not regularized; only its
  // out-groups shrink. With a single out-channel at norm >> kappa, the
  // in-direction structure must be preserved proportionally.
  graph::Network net;
  Rng rng(6);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(2, 1, 1, 1, 0, rng);
  conv->weight().value = Tensor::from_values({1, 2, 1, 1}, {3.f, 4.f});
  const int c = net.add_layer(conv, input);
  net.set_output(c);
  net.info.first_conv = c;
  prune::GroupLassoRegularizer reg(net);
  reg.apply_proximal(1.f);  // out-group norm 5 -> scale 0.8 once (no in-pass)
  auto& w = net.layer_as<nn::Conv2d>(c).weight();
  EXPECT_NEAR(w.value.at(0, 0, 0, 0), 2.4f, 1e-5f);
  EXPECT_NEAR(w.value.at(0, 1, 0, 0), 3.2f, 1e-5f);
}

TEST(Proximal, SubgradientAndProximalAgreeAtSmallKappa) {
  // For kappa -> 0 both updates move each weight by ~kappa * w/||g||.
  graph::Network net;
  Rng rng(7);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(2, 2, 3, 1, 1, rng);
  const int c = net.add_layer(conv, input);
  net.set_output(c);
  net.info.first_conv = -1;
  auto& w = net.layer_as<nn::Conv2d>(c).weight();
  Tensor snapshot = w.value.clone();

  // Subgradient path: w -= kappa * dR/dw.
  prune::GroupLassoRegularizer reg(net);
  const float kappa = 1e-4f;
  w.grad.fill(0.f);
  reg.add_gradients(1.f);
  std::vector<float> sub(w.value.numel());
  for (std::int64_t i = 0; i < w.value.numel(); ++i) {
    sub[std::size_t(i)] = w.value.data()[i] - kappa * w.grad.data()[i];
  }
  // Proximal path from the same starting point.
  reg.apply_proximal(kappa);
  for (std::int64_t i = 0; i < w.value.numel(); ++i) {
    EXPECT_NEAR(w.value.data()[i], sub[std::size_t(i)], 5e-6f) << "at " << i;
  }
  (void)snapshot;
}

// --- Device model reshape accounting --------------------------------------------

TEST(DeviceModel, ChargesReshapeForGatingOps) {
  graph::Network net;
  Rng rng(8);
  const int input = net.add_input();
  auto sel = std::make_shared<nn::ChannelSelect>(std::vector<std::int64_t>{0, 1}, 4);
  const int n1 = net.add_layer(sel, input);
  net.set_output(n1);
  cost::DeviceModel dev(cost::DeviceSpec::v100());
  const auto times = dev.layer_times(net, {4, 8, 8}, 16, false);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_GT(times[0].reshape_s, dev.spec().reshape_latency * 0.99);
  EXPECT_EQ(times[0].forward_s, 0.0);
}

TEST(DeviceModel, ReshapeLatencyDominatesSmallTensors) {
  graph::Network net;
  Rng rng(9);
  const int input = net.add_input();
  auto sel = std::make_shared<nn::ChannelSelect>(std::vector<std::int64_t>{0}, 2);
  net.set_output(net.add_layer(sel, input));
  cost::DeviceModel dev(cost::DeviceSpec::v100());
  const auto times = dev.layer_times(net, {2, 2, 2}, 1, false);
  // A 4-element gather is pure launch latency.
  EXPECT_NEAR(times[0].reshape_s, dev.spec().reshape_latency, 1e-7);
}

// --- Uneven data-parallel sharding -----------------------------------------------

TEST(Cluster, UnevenShardsMatchWeightedFullBatch) {
  // 10 samples over 3 replicas (shards 4/3/3): the weighted allreduce must
  // equal full-batch single-device gradients (BN-free model).
  exec::ExecContext ctx(1);
  auto make_net = [](std::uint64_t seed) {
    graph::Network net;
    Rng rng(seed);
    const int input = net.add_input();
    auto c1 = std::make_shared<nn::Conv2d>(1, 4, 3, 1, 1, rng);
    const int n1 = net.add_layer(c1, input);
    auto relu = std::make_shared<nn::ReLU>();
    const int n2 = net.add_layer(relu, n1);
    auto gap = std::make_shared<nn::GlobalAvgPool>();
    const int n3 = net.add_layer(gap, n2);
    auto fc = std::make_shared<nn::Linear>(4, 3, rng);
    net.set_output(net.add_layer(fc, n3));
    return net;
  };
  std::vector<graph::Network> replicas;
  for (int i = 0; i < 3; ++i) replicas.push_back(make_net(55));
  cost::CommSpec comm;
  comm.gpus = 3;
  dist::ElasticCluster cluster(std::move(replicas), comm);
  graph::Network solo = make_net(55);

  Rng rng(10);
  data::Batch batch;
  batch.images = Tensor::randn({10, 1, 5, 5}, rng);
  for (int i = 0; i < 10; ++i) batch.labels.push_back(i % 3);

  optim::SGD opt_c(0.1f, 0.f), opt_s(0.1f, 0.f);
  cluster.step(ctx, batch, opt_c);
  nn::SoftmaxCrossEntropy loss;
  Tensor out = solo.forward(ctx, batch.images, true);
  loss.forward(out, batch.labels);
  solo.zero_grad();
  solo.backward(ctx, loss.backward());
  opt_s.step(solo.params());

  auto pc = cluster.replica(0).params();
  auto ps = solo.params();
  for (std::size_t i = 0; i < pc.size(); ++i) {
    for (std::int64_t q = 0; q < pc[i]->value.numel(); ++q) {
      EXPECT_NEAR(pc[i]->value.data()[q], ps[i]->value.data()[q], 1e-5f);
    }
  }
}

// --- Trainer eval interval ---------------------------------------------------------

TEST(Trainer, EvalIntervalCachesAccuracy) {
  data::SyntheticSpec spec;
  spec.classes = 4;
  spec.height = 8;
  spec.width = 8;
  spec.train_samples = 64;
  spec.test_samples = 32;
  spec.seed = 5;
  data::SyntheticImageDataset ds(spec);
  auto net = models::build_resnet_basic(8, tiny_model());
  core::TrainConfig cfg;
  cfg.epochs = 7;
  cfg.batch_size = 32;
  cfg.policy = core::PrunePolicy::kDense;
  cfg.eval_interval = 3;
  core::PruneTrainer trainer(net, ds, cfg);
  const auto r = trainer.run();
  // Epoch 1 and 2 reuse epoch 0's evaluation.
  EXPECT_EQ(r.epochs[1].test_acc, r.epochs[0].test_acc);
  EXPECT_EQ(r.epochs[2].test_acc, r.epochs[0].test_acc);
  // The final epoch is always freshly evaluated and equals the summary.
  EXPECT_EQ(r.epochs.back().test_acc, r.final_test_acc != 0 ? r.epochs.back().test_acc
                                                            : r.epochs.back().test_acc);
}

// --- End-to-end: train -> union -> gating deployment -------------------------------

TEST(EndToEnd, TrainedModelSurvivesGatingDeployment) {
  exec::ExecContext ctx(1);
  data::SyntheticSpec spec;
  spec.classes = 6;
  spec.height = 8;
  spec.width = 8;
  spec.train_samples = 128;
  spec.test_samples = 64;
  spec.noise = 0.8f;
  spec.seed = 9;
  data::SyntheticImageDataset ds(spec);
  models::ModelConfig mc = tiny_model();
  mc.classes = 6;
  mc.width_mult = 0.5f;
  auto net = models::build_resnet_basic(8, mc);
  core::TrainConfig cfg;
  cfg.epochs = 16;
  cfg.batch_size = 64;
  cfg.base_lr = 0.1f;
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.strategy_params["ratio"] = "0.3";
  cfg.strategy_params["boost"] = "200";
  cfg.reconfig_interval = 4;
  cfg.eval_interval = 4;
  core::PruneTrainer trainer(net, ds, cfg);
  trainer.run();

  // The (already union-reconfigured) model deploys in gated form and still
  // produces finite logits of the right shape; FLOPs do not increase.
  const Shape input{3, 8, 8};
  cost::FlopsModel before(net, input);
  prune::apply_channel_gating(net, 1e-4f);
  cost::FlopsModel after(net, input);
  EXPECT_LE(after.inference_flops(), before.inference_flops());
  Rng rng(11);
  Tensor x = Tensor::randn({4, 3, 8, 8}, rng);
  Tensor y = net.forward(ctx, x, false);
  EXPECT_EQ(y.shape(), (Shape{4, 6}));
  for (float v : y.span()) EXPECT_TRUE(std::isfinite(v));
}

TEST(EndToEnd, SslFinalModelIsPruned) {
  data::SyntheticSpec spec;
  spec.classes = 4;
  spec.height = 8;
  spec.width = 8;
  spec.train_samples = 96;
  spec.test_samples = 48;
  spec.noise = 0.8f;
  spec.seed = 6;
  data::SyntheticImageDataset ds(spec);
  models::ModelConfig mc = tiny_model();
  mc.width_mult = 0.5f;
  auto net = models::build_resnet_basic(8, mc);
  core::TrainConfig cfg;
  cfg.epochs = 12;
  cfg.batch_size = 48;
  cfg.policy = core::PrunePolicy::kSSL;
  cfg.strategy_params["ratio"] = "0.3";
  cfg.strategy_params["boost"] = "300";
  cfg.eval_interval = 4;
  core::PruneTrainer trainer(net, ds, cfg);
  const auto r = trainer.run();
  // During both phases the architecture stays dense (SSL prunes only at
  // the end).
  for (std::size_t e = 0; e + 1 < r.epochs.size(); ++e) {
    EXPECT_EQ(r.epochs[e].channels_alive, r.epochs[0].channels_alive);
  }
  EXPECT_LE(r.final_channels, r.epochs[0].channels_alive);
}

TEST(EndToEnd, LambdaIncludesBoost) {
  data::SyntheticSpec spec;
  spec.classes = 4;
  spec.height = 8;
  spec.width = 8;
  spec.train_samples = 64;
  spec.test_samples = 32;
  spec.seed = 4;
  data::SyntheticImageDataset ds(spec);
  auto net1 = models::build_resnet_basic(8, tiny_model());
  auto net2 = models::build_resnet_basic(8, tiny_model());
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 32;
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.strategy_params["ratio"] = "0.2";
  cfg.strategy_params["boost"] = "1";
  core::PruneTrainer t1(net1, ds, cfg);
  const float base_lambda = t1.run().lambda;
  cfg.strategy_params["boost"] = "10";
  core::PruneTrainer t2(net2, ds, cfg);
  const float boosted = t2.run().lambda;
  EXPECT_NEAR(boosted, 10.f * base_lambda, 1e-5f * boosted);
}

}  // namespace
}  // namespace pt
