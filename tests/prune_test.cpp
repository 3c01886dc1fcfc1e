// Pruning machinery tests: group-lasso math (Eq. 2), penalty calibration
// (Eq. 3), channel-variable analysis (channel union), reconfiguration
// surgery with exact function preservation, dead-branch (layer) removal,
// channel gating, sparsity monitoring, and snapshots.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>

#include "core/trainer.h"
#include "cost/flops.h"
#include "data/synthetic.h"
#include "dist/codec.h"
#include "models/builders.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/channel_index.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "prune/channel_analysis.h"
#include "prune/gating.h"
#include "prune/group_lasso.h"
#include "prune/reconfigure.h"
#include "prune/sparsity_monitor.h"
#include "prune/strategy.h"
#include "prune/strategy_zoo.h"

namespace pt::prune {
namespace {

models::ModelConfig tiny_cfg() {
  models::ModelConfig cfg;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.classes = 4;
  cfg.width_mult = 0.25f;
  return cfg;
}

/// Zeroes output channel `k` of a conv and neutralizes the following BN
/// channel so pruning it preserves the function exactly.
void kill_out_channel(graph::Network& net, int conv_node, int bn_node,
                      std::int64_t k) {
  auto& conv = net.layer_as<nn::Conv2d>(conv_node);
  const std::int64_t len = conv.in_channels() * conv.kernel() * conv.kernel();
  for (std::int64_t q = 0; q < len; ++q) {
    conv.weight().value.data()[k * len + q] = 0.f;
  }
  auto& bn = net.layer_as<nn::BatchNorm2d>(bn_node);
  bn.gamma().value.at(k) = 1.f;
  bn.beta().value.at(k) = 0.f;
  bn.running_mean().at(k) = 0.f;
  bn.running_var().at(k) = 1.f;
}

/// Zeroes input channel `c` of a conv.
void kill_in_channel(graph::Network& net, int conv_node, std::int64_t c) {
  auto& conv = net.layer_as<nn::Conv2d>(conv_node);
  const std::int64_t rs = conv.kernel() * conv.kernel();
  for (std::int64_t k = 0; k < conv.out_channels(); ++k) {
    for (std::int64_t q = 0; q < rs; ++q) {
      conv.weight().value.data()[(k * conv.in_channels() + c) * rs + q] = 0.f;
    }
  }
}

// --- Group lasso -------------------------------------------------------------

TEST(GroupLasso, LossMatchesHandComputation) {
  graph::Network net;
  Rng rng(1);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(2, 2, 1, 1, 0, rng);
  // W[k][c][0][0] = [[1, 2], [3, 4]] (k major).
  conv->weight().value = Tensor::from_values({2, 2, 1, 1}, {1, 2, 3, 4});
  const int c = net.add_layer(conv, input);
  net.set_output(c);
  net.info.first_conv = -1;  // regularize everything, including in-groups
  GroupLassoRegularizer reg(net);
  // Out groups: ||(1,2)|| + ||(3,4)|| ; in groups: ||(1,3)|| + ||(2,4)||.
  const double expected = std::sqrt(5.0) + std::sqrt(25.0) + std::sqrt(10.0) +
                          std::sqrt(20.0);
  EXPECT_NEAR(reg.loss(), expected, 1e-6);
}

TEST(GroupLasso, FirstConvInputGroupsExcluded) {
  graph::Network net;
  Rng rng(2);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(2, 2, 1, 1, 0, rng);
  conv->weight().value = Tensor::from_values({2, 2, 1, 1}, {1, 2, 3, 4});
  const int c = net.add_layer(conv, input);
  net.set_output(c);
  net.info.first_conv = c;
  GroupLassoRegularizer reg(net);
  EXPECT_NEAR(reg.loss(), std::sqrt(5.0) + std::sqrt(25.0), 1e-6);
}

TEST(GroupLasso, GradientMatchesFiniteDifference) {
  graph::Network net;
  Rng rng(3);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(3, 4, 3, 1, 1, rng);
  const int c = net.add_layer(conv, input);
  net.set_output(c);
  net.info.first_conv = -1;
  GroupLassoRegularizer reg(net);
  const float lambda = 0.37f;
  auto& w = net.layer_as<nn::Conv2d>(c).weight();
  w.grad.fill(0.f);
  reg.add_gradients(lambda);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < w.value.numel(); i += 5) {
    const float orig = w.value.data()[i];
    w.value.data()[i] = orig + eps;
    const double lp = lambda * reg.loss();
    w.value.data()[i] = orig - eps;
    const double lm = lambda * reg.loss();
    w.value.data()[i] = orig;
    EXPECT_NEAR(w.grad.data()[i], (lp - lm) / (2 * eps), 2e-3) << "at " << i;
  }
}

TEST(GroupLasso, ZeroGroupHasZeroSubgradient) {
  graph::Network net;
  Rng rng(4);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(1, 2, 1, 1, 0, rng);
  conv->weight().value = Tensor::from_values({2, 1, 1, 1}, {0.f, 1.f});
  const int c = net.add_layer(conv, input);
  net.set_output(c);
  net.info.first_conv = c;
  GroupLassoRegularizer reg(net);
  auto& w = net.layer_as<nn::Conv2d>(c).weight();
  w.grad.fill(0.f);
  reg.add_gradients(1.f);
  EXPECT_EQ(w.grad.at(0, 0, 0, 0), 0.f);   // zero group: subgradient 0
  EXPECT_NEAR(w.grad.at(1, 0, 0, 0), 1.f, 1e-6f);  // w/||w|| = 1
}

TEST(GroupLasso, RegularizationShrinksWeights) {
  // Pure-lasso gradient descent must drive group norms toward zero.
  graph::Network net;
  Rng rng(5);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(4, 4, 3, 1, 1, rng);
  const int c = net.add_layer(conv, input);
  net.set_output(c);
  net.info.first_conv = -1;
  GroupLassoRegularizer reg(net);
  auto& w = net.layer_as<nn::Conv2d>(c).weight();
  const double before = reg.loss();
  for (int step = 0; step < 50; ++step) {
    w.grad.fill(0.f);
    reg.add_gradients(1.f);
    for (std::int64_t i = 0; i < w.value.numel(); ++i) {
      w.value.data()[i] -= 0.01f * w.grad.data()[i];
    }
  }
  EXPECT_LT(reg.loss(), before);
}

TEST(Calibration, LambdaAchievesExactRatio) {
  for (float ratio : {0.05f, 0.1f, 0.2f, 0.25f, 0.3f}) {
    const double class_loss = 2.3;
    const double lasso = 140.0;
    const float lambda = calibrate_lambda(ratio, class_loss, lasso);
    EXPECT_NEAR(lasso_penalty_ratio(lambda, class_loss, lasso), ratio, 1e-6);
  }
}

TEST(Calibration, RejectsBadInputs) {
  EXPECT_THROW(calibrate_lambda(0.f, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(calibrate_lambda(1.f, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(calibrate_lambda(0.2f, 1.0, 0.0), std::invalid_argument);
}

// --- Channel analysis ---------------------------------------------------------

TEST(ChannelAnalysis, AdjacentConvsIntersectionRule) {
  // conv1 -> bn -> relu -> conv2 chain: a channel survives unless BOTH
  // conv1's out-group and conv2's in-group sparsified it.
  graph::Network net;
  Rng rng(10);
  const int input = net.add_input();
  auto c1 = std::make_shared<nn::Conv2d>(2, 4, 3, 1, 1, rng);
  const int n1 = net.add_layer(c1, input);
  auto bn = std::make_shared<nn::BatchNorm2d>(4);
  const int n2 = net.add_layer(bn, n1);
  auto relu = std::make_shared<nn::ReLU>();
  const int n3 = net.add_layer(relu, n2);
  auto c2 = std::make_shared<nn::Conv2d>(4, 2, 3, 1, 1, rng);
  const int n4 = net.add_layer(c2, n3);
  net.set_output(n4);
  net.info.first_conv = n1;

  // Channel 0: dead on both sides -> pruned. Channel 1: dead only in
  // conv1-out -> kept (conv2 still reads it). Channel 2: dead only in
  // conv2-in -> kept. Channel 3: alive both sides -> kept.
  kill_out_channel(net, n1, n2, 0);
  kill_in_channel(net, n4, 0);
  kill_out_channel(net, n1, n2, 1);
  kill_in_channel(net, n4, 2);

  const auto analysis = analyze_channels(net, 1e-4f);
  const auto& keep = analysis.keep_of(n1);
  EXPECT_EQ(keep, (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(ChannelAnalysis, InputVariableStaysDense) {
  auto net = models::build_resnet_basic(8, tiny_cfg());
  const auto analysis = analyze_channels(net, 1e10f);  // everything "sparse"
  const auto& keep0 = analysis.vars[static_cast<std::size_t>(
      analysis.var_of(0))].keep;
  EXPECT_EQ(static_cast<std::int64_t>(keep0.size()), 3);  // RGB input kept
}

TEST(ChannelAnalysis, ResidualStageSharesOneVariable) {
  // All convs bordering a residual stage's shared nodes must land in the
  // same channel variable (channel union).
  auto net = models::build_resnet_basic(20, tiny_cfg());
  const auto analysis = analyze_channels(net, 1e-4f);
  // Blocks 0..2 are stage 0 (identity shortcuts to the stem output).
  const auto& blk0 = net.info.blocks[0];
  const auto& blk1 = net.info.blocks[1];
  const auto& blk2 = net.info.blocks[2];
  const int v_add0 = analysis.var_of(blk0.add_node);
  EXPECT_EQ(v_add0, analysis.var_of(blk1.add_node));
  EXPECT_EQ(v_add0, analysis.var_of(blk2.add_node));
  // The stem output is the same variable too (identity short-cut).
  EXPECT_EQ(v_add0, analysis.var_of(net.info.first_conv));
  // Stage 1 starts with a projection: new variable.
  const auto& blk3 = net.info.blocks[3];
  EXPECT_NE(v_add0, analysis.var_of(blk3.add_node));
}

TEST(ChannelAnalysis, UnionKeepsChannelAliveAnywhereInStage) {
  auto net = models::build_resnet_basic(8, tiny_cfg());  // 1 block per stage
  // Stage 0: stem + block0. Zero stem-out channel 0 and block conv2-out
  // channel 0, but leave block conv1's *input* weights for channel 0 alive:
  // union must keep channel 0.
  const auto& blk = net.info.blocks[0];
  kill_out_channel(net, net.info.first_conv, net.info.first_conv + 1, 0);
  kill_out_channel(net, blk.path_convs[1], blk.path_nodes[4], 0);
  const auto analysis = analyze_channels(net, 1e-4f);
  const auto& keep = analysis.keep_of(blk.add_node);
  EXPECT_TRUE(std::find(keep.begin(), keep.end(), 0) != keep.end());
}

TEST(ChannelAnalysis, EmptyVariableKeepsStrongestChannel) {
  graph::Network net;
  Rng rng(11);
  const int input = net.add_input();
  auto c1 = std::make_shared<nn::Conv2d>(1, 3, 1, 1, 0, rng);
  c1->weight().value = Tensor::from_values({3, 1, 1, 1}, {0.f, 1e-6f, 0.f});
  const int n1 = net.add_layer(c1, input);
  auto c2 = std::make_shared<nn::Conv2d>(3, 1, 1, 1, 0, rng);
  c2->weight().value.fill(0.f);
  const int n2 = net.add_layer(c2, n1);
  net.set_output(n2);
  net.info.first_conv = n1;
  const auto analysis = analyze_channels(net, 1e-4f);
  EXPECT_EQ(analysis.keep_of(n1), (std::vector<std::int64_t>{1}));
}

// --- Reconfiguration -----------------------------------------------------------

TEST(Reconfigure, FunctionPreservedExactlyWhenChannelsDead) {
  // VGG-style chain: kill a channel on both sides, reconfigure, and the
  // network must compute the *same* outputs (eval mode).
  exec::ExecContext ctx(1);
  auto cfg = tiny_cfg();
  auto net = models::build_vgg(11, cfg);
  Rng rng(12);
  // conv 0 out-channel 1: vgg stage0 conv -> node ids: conv=1, bn=2.
  kill_out_channel(net, 1, 2, 1);
  const auto convs = net.nodes_of_type<nn::Conv2d>();
  kill_in_channel(net, convs[1], 1);

  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor before = net.forward(ctx, x, false).clone();
  Reconfigurer rec(net, 1e-4f);
  const auto stats = rec.reconfigure();
  EXPECT_TRUE(stats.changed);
  EXPECT_EQ(stats.channels_after, stats.channels_before - 1);
  Tensor after = net.forward(ctx, x, false);
  ASSERT_EQ(before.shape(), after.shape());
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_NEAR(before.data()[i], after.data()[i], 1e-4f) << "at " << i;
  }
}

TEST(Reconfigure, ResidualStageFunctionPreserved) {
  exec::ExecContext ctx(1);
  auto cfg = tiny_cfg();
  auto net = models::build_resnet_basic(8, cfg);
  Rng rng(13);
  // Kill channel 2 of the stage-0 variable everywhere it is written or
  // read: stem out, block conv1 in, block conv2 out (+BN), next stage
  // projection & conv1 in.
  const auto& blk0 = net.info.blocks[0];
  const auto& blk1 = net.info.blocks[1];
  kill_out_channel(net, net.info.first_conv, net.info.first_conv + 1, 2);
  kill_in_channel(net, blk0.path_convs[0], 2);
  kill_out_channel(net, blk0.path_convs[1], blk0.path_nodes[4], 2);
  kill_in_channel(net, blk1.path_convs[0], 2);
  kill_in_channel(net, blk1.shortcut_conv, 2);

  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor before = net.forward(ctx, x, false).clone();
  Reconfigurer rec(net, 1e-4f);
  const auto stats = rec.reconfigure();
  EXPECT_TRUE(stats.changed);
  Tensor after = net.forward(ctx, x, false);
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_NEAR(before.data()[i], after.data()[i], 1e-4f);
  }
}

TEST(Reconfigure, MomentumPreservedForSurvivors) {
  auto net = models::build_vgg(11, tiny_cfg());
  // Tag momentum of conv1 (the second conv).
  const auto convs = net.nodes_of_type<nn::Conv2d>();
  auto& conv = net.layer_as<nn::Conv2d>(convs[1]);
  for (std::int64_t i = 0; i < conv.weight().momentum.numel(); ++i) {
    conv.weight().momentum.data()[i] = float(i);
  }
  kill_out_channel(net, 1, 2, 0);
  kill_in_channel(net, convs[1], 0);
  const std::int64_t in_before = conv.in_channels();
  const std::int64_t rs = conv.kernel() * conv.kernel();
  const float expected = conv.weight().momentum.at(0, 1, 0, 0);
  Reconfigurer rec(net, 1e-4f);
  rec.reconfigure();
  // Input channel 0 removed: new [0][0] was old [0][1].
  EXPECT_EQ(conv.in_channels(), in_before - 1);
  EXPECT_FLOAT_EQ(conv.weight().momentum.at(0, 0, 0, 0), expected);
  (void)rs;
}

TEST(Reconfigure, DeadBranchRemovedAndBypassed) {
  exec::ExecContext ctx(1);
  auto net = models::build_resnet_basic(20, tiny_cfg());
  // Kill every out-channel of block 1's first conv: whole branch dies.
  const auto& blk = net.info.blocks[1];
  auto& conv = net.layer_as<nn::Conv2d>(blk.path_convs[0]);
  conv.weight().value.fill(0.f);
  const std::int64_t convs_before = models::count_conv_layers(net);
  Reconfigurer rec(net, 1e-4f);
  const auto stats = rec.reconfigure();
  EXPECT_EQ(stats.blocks_removed, 1);
  EXPECT_EQ(stats.convs_removed, 2);
  EXPECT_EQ(models::count_conv_layers(net), convs_before - 2);
  EXPECT_TRUE(net.info.blocks[1].removed);
  // The network still trains and evaluates.
  Rng rng(14);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  EXPECT_EQ(net.forward(ctx, x, false).shape(), (Shape{2, 4}));
}

TEST(Reconfigure, DeadBranchFunctionPreservedWithIdentityShortcut) {
  exec::ExecContext ctx(1);
  auto net = models::build_resnet_basic(8, tiny_cfg());
  const auto& blk = net.info.blocks[0];  // identity shortcut
  // Kill the *last* conv of the branch and neutralize its BN: branch
  // contributes exactly zero, so removal is exact.
  auto& conv = net.layer_as<nn::Conv2d>(blk.path_convs[1]);
  conv.weight().value.fill(0.f);
  auto& bn = net.layer_as<nn::BatchNorm2d>(blk.path_nodes[4]);
  bn.beta().value.fill(0.f);
  bn.running_mean().fill(0.f);
  bn.running_var().fill(1.f);

  Rng rng(15);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor before = net.forward(ctx, x, false).clone();
  Reconfigurer rec(net, 1e-4f);
  const auto stats = rec.reconfigure();
  EXPECT_EQ(stats.blocks_removed, 1);
  Tensor after = net.forward(ctx, x, false);
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_NEAR(before.data()[i], after.data()[i], 1e-4f);
  }
}

TEST(Reconfigure, NoopWhenNothingSparse) {
  auto net = models::build_resnet_basic(20, tiny_cfg());
  Reconfigurer rec(net, 1e-8f);  // threshold below any initialized weight
  const auto stats = rec.reconfigure();
  EXPECT_FALSE(stats.changed);
  EXPECT_EQ(stats.channels_before, stats.channels_after);
}

TEST(Reconfigure, ClassifierInputsFollowLastStage) {
  auto net = models::build_vgg(11, tiny_cfg());
  const auto convs = net.nodes_of_type<nn::Conv2d>();
  const int last_conv = convs.back();
  auto& conv = net.layer_as<nn::Conv2d>(last_conv);
  const int bn_after = net.consumer_map()[static_cast<std::size_t>(last_conv)][0];
  kill_out_channel(net, last_conv, bn_after, 3);
  auto& fc = net.layer_as<nn::Linear>(net.info.classifier);
  const std::int64_t fc_in_before = fc.in_features();
  Reconfigurer rec(net, 1e-4f);
  rec.reconfigure();
  EXPECT_EQ(fc.in_features(), fc_in_before - 1);
  EXPECT_EQ(conv.out_channels(), fc_in_before - 1);
}

// --- Channel gating -------------------------------------------------------------

TEST(Gating, InsertsGatesAndPreservesFunction) {
  exec::ExecContext ctx(1);
  auto net = models::build_resnet_basic(8, tiny_cfg());
  Rng rng(16);
  const auto& blk = net.info.blocks[1];  // stage-1 block (projection shortcut)
  // Make the branch's first conv ignore channel 1 (its own dense_in is a
  // proper subset of the union) and its last conv emit nothing on channel 0.
  kill_in_channel(net, blk.path_convs[0], 1);
  kill_out_channel(net, blk.path_convs[1], blk.path_nodes[4], 0);

  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  // Union reconfigure first (gating builds on the union model).
  Reconfigurer rec(net, 1e-4f);
  rec.reconfigure();
  Tensor union_out = net.forward(ctx, x, false).clone();

  const auto stats = apply_channel_gating(net, 1e-4f);
  EXPECT_EQ(stats.selects_inserted, 1);
  EXPECT_EQ(stats.scatters_inserted, 1);
  EXPECT_GT(stats.channels_gated_away, 0);

  Tensor gated_out = net.forward(ctx, x, false);
  ASSERT_EQ(union_out.shape(), gated_out.shape());
  for (std::int64_t i = 0; i < union_out.numel(); ++i) {
    EXPECT_NEAR(union_out.data()[i], gated_out.data()[i], 1e-4f) << "at " << i;
  }
}

TEST(Gating, ReducesConvFlopsVsUnion) {
  auto net = models::build_resnet_basic(8, tiny_cfg());
  const auto& blk = net.info.blocks[1];
  kill_in_channel(net, blk.path_convs[0], 1);
  kill_in_channel(net, blk.path_convs[0], 2);
  Reconfigurer rec(net, 1e-4f);
  rec.reconfigure();
  cost::FlopsModel union_flops(net, {3, 8, 8});
  apply_channel_gating(net, 1e-4f);
  cost::FlopsModel gated_flops(net, {3, 8, 8});
  EXPECT_LT(gated_flops.inference_flops(), union_flops.inference_flops());
}

TEST(Gating, NoGatesWhenBranchFullyDense) {
  auto net = models::build_resnet_basic(8, tiny_cfg());
  Reconfigurer rec(net, 1e-8f);
  rec.reconfigure();
  const auto stats = apply_channel_gating(net, 1e-8f);
  EXPECT_EQ(stats.selects_inserted, 0);
  EXPECT_EQ(stats.scatters_inserted, 0);
}

// --- Sparsity monitor ------------------------------------------------------------

TEST(SparsityMonitor, RecordsPerChannelMaxAbs) {
  auto net = models::build_vgg(11, tiny_cfg());
  SparsityMonitor mon(net);
  mon.record(0);
  const auto convs = net.nodes_of_type<nn::Conv2d>();
  auto& conv = net.layer_as<nn::Conv2d>(convs[0]);
  conv.weight().value.fill(0.f);
  mon.record(1);
  const auto& h = mon.history()[0];
  ASSERT_EQ(h.max_abs.size(), 2u);
  EXPECT_GT(h.max_abs[0][0], 0.f);
  EXPECT_EQ(h.max_abs[1][0], 0.f);
}

TEST(SparsityMonitor, CountsRevivals) {
  auto net = models::build_vgg(11, tiny_cfg());
  SparsityMonitor mon(net);
  const auto convs = net.nodes_of_type<nn::Conv2d>();
  auto& conv = net.layer_as<nn::Conv2d>(convs[0]);
  conv.weight().value.fill(0.f);
  mon.record(0);
  EXPECT_EQ(mon.count_revivals(1e-4f), 0);
  conv.weight().value.fill(0.5f);  // everything revives
  mon.record(1);
  EXPECT_EQ(mon.count_revivals(1e-4f), conv.out_channels());
}

TEST(SparsityMonitor, ReconfigurationResetsComparisonWindow) {
  auto net = models::build_vgg(11, tiny_cfg());
  SparsityMonitor mon(net);
  mon.record(0);
  // Shrink conv0 between records: widths differ, no revival comparison.
  const auto convs = net.nodes_of_type<nn::Conv2d>();
  auto& conv = net.layer_as<nn::Conv2d>(convs[0]);
  std::vector<std::int64_t> keep_in{0, 1, 2}, keep_out;
  for (std::int64_t k = 1; k < conv.out_channels(); ++k) keep_out.push_back(k);
  conv.shrink(keep_in, keep_out);
  mon.record(1);
  EXPECT_EQ(mon.count_revivals(1e-4f), 0);
}

TEST(LayerDensities, ReflectSparsity) {
  auto net = models::build_vgg(11, tiny_cfg());
  kill_out_channel(net, 1, 2, 0);
  const auto densities = layer_densities(net, 1e-4f);
  ASSERT_FALSE(densities.empty());
  const auto& first = densities[0];
  auto& conv = net.layer_as<nn::Conv2d>(1);
  EXPECT_NEAR(first.channel_density,
              double(conv.out_channels() - 1) / double(conv.out_channels()), 1e-9);
  EXPECT_LT(first.weight_density, 1.0);
  EXPECT_GT(first.weight_density, 0.0);
}

// ---------------------------------------------------------------------------
// Strategy registry: names, creation, parameter validation, help table.

TEST(StrategyRegistry, RegistersTheBuiltinZoo) {
  const auto names = StrategyRegistry::global().names();
  for (const char* expected : {"group_lasso", "dsd", "dst", "channel_prop"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(StrategyRegistry, UnknownStrategyOrParamThrows) {
  EXPECT_THROW(StrategyRegistry::global().create("no_such_strategy"),
               std::invalid_argument);
  EXPECT_THROW(
      StrategyRegistry::global().create("dsd", {{"bogus_knob", "1"}}),
      std::invalid_argument);
  EXPECT_THROW(
      StrategyRegistry::global().create("group_lasso", {{"ratio", "1.5"}}),
      std::invalid_argument);
  EXPECT_THROW(
      StrategyRegistry::global().create("dst", {{"init", "not-a-number"}}),
      std::invalid_argument);
  // std::stof parses "nan" and "inf"; a non-finite knob (a NaN boost makes
  // lambda NaN) is rejected with the key named, and so is an out-of-range
  // one: a boost <= 0 rewards large groups (boost=-1 trained with a
  // negative lambda), and negative DST rates or a negative channel_prop
  // warmup mean nothing.
  const std::vector<std::pair<std::string, ParamMap>> bad = {
      {"group_lasso", {{"boost", "nan"}}}, {"group_lasso", {{"boost", "inf"}}},
      {"dst", {{"alpha", "nan"}}},         {"dst", {{"alpha", "inf"}}},
      {"dst", {{"threshold_lr", "nan"}}},  {"dst", {{"threshold_lr", "inf"}}},
      {"dst", {{"beta", "nan"}}},          {"dst", {{"beta", "-inf"}}},
      {"group_lasso", {{"boost", "0"}}},   {"group_lasso", {{"boost", "-1"}}},
      {"dst", {{"alpha", "-1"}}},          {"dst", {{"threshold_lr", "-0.01"}}},
      {"dst", {{"beta", "-5"}}},           {"channel_prop", {{"warmup", "-1"}}}};
  for (const auto& [name, params] : bad) {
    const std::string key = params.begin()->first;
    try {
      (void)StrategyRegistry::global().create(name, params);
      ADD_FAILURE() << name << " accepted " << key << "="
                    << params.begin()->second;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos)
          << e.what();
    }
  }
}

// The registration idiom out-of-tree clients compile against (perfbench's
// timed wrapper): copy a built-in's params, then create the built-in from
// the resolved map the wrapper receives.
TEST(StrategyRegistry, WrapperRegistersLikeAnOutOfTreeClient) {
  ParamMap seen;
  StrategyRegistry registry;
  const StrategyFactory* base = StrategyRegistry::global().find("group_lasso");
  ASSERT_NE(base, nullptr);
  registry.register_strategy(
      {"wrapped_group_lasso", "group_lasso behind a wrapper", base->params,
       [&seen](const std::map<std::string, std::string>& params) {
         seen = params;
         return StrategyRegistry::global().create("group_lasso", params);
       }});
  const auto strategy =
      registry.create("wrapped_group_lasso", {{"ratio", "0.3"}});
  ASSERT_NE(strategy, nullptr);
  EXPECT_EQ(strategy->name(), "group_lasso");
  EXPECT_EQ(seen.size(), base->params.size());
  EXPECT_EQ(seen.at("ratio"), "0.3");
  EXPECT_EQ(seen.at("boost"), "1");
  EXPECT_THROW(registry.create("wrapped_group_lasso", {{"bogus", "1"}}),
               std::invalid_argument);
  try {
    registry.register_strategy(
        {"wrapped_group_lasso", "registered twice", {},
         [](const ParamMap&) { return std::unique_ptr<Strategy>(); }});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("already registered"),
              std::string::npos);
  }
}

// Both plug-in registries: every factory builds from its defaults, and the
// help table (headed by the registry's noun) lists every plug-in and
// parameter.
TEST(PluginRegistries, EveryFactoryCreatesAndHelpListsEveryParam) {
  const auto check = [](const auto& registry, const std::string& kind) {
    const std::string help = registry.help();
    EXPECT_EQ(help.rfind(kind + " ", 0), 0u) << help;
    ASSERT_FALSE(registry.names().empty());
    for (const std::string& name : registry.names()) {
      EXPECT_NE(registry.create(name), nullptr) << name;
      EXPECT_NE(help.find(name), std::string::npos) << name;
      for (const ParamSpec& p : registry.find(name)->params) {
        EXPECT_NE(help.find(p.name), std::string::npos)
            << name << "." << p.name;
      }
    }
  };
  check(StrategyRegistry::global(), "strategy");
  check(dist::CodecRegistry::global(), "codec");
}

// ---------------------------------------------------------------------------
// Strategy conformance suite: every registered strategy must compose with
// mid-phase checkpoint resume, guardian rollback-replay, and the
// deterministic thread pool — all bitwise — and must respect the
// prune_min_channels floor.

namespace fs = std::filesystem;

fs::path strategy_scratch_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("pt_strategy_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

data::SyntheticSpec conformance_data() {
  data::SyntheticSpec spec;
  spec.name = "tiny";
  spec.classes = 8;
  spec.channels = 3;
  spec.height = 8;
  spec.width = 8;
  spec.train_samples = 256;
  spec.test_samples = 128;
  spec.noise = 0.8f;
  spec.max_shift = 2;
  spec.seed = 5;
  return spec;
}

graph::Network conformance_net() {
  models::ModelConfig mc;
  mc.image_h = 8;
  mc.image_w = 8;
  mc.classes = 8;
  mc.width_mult = 0.5f;
  mc.seed = 21;
  return models::build_resnet_basic(8, mc);
}

/// Parameters aggressive enough that every strategy visibly acts within
/// the 6 proxy epochs the conformance runs use.
std::map<std::string, std::string> aggressive_params(const std::string& name) {
  if (name == "group_lasso") return {{"ratio", "0.3"}, {"boost", "2000"}};
  if (name == "dsd") {
    return {{"sparsity", "0.5"}, {"sparse_begin", "0.2"}, {"sparse_end", "0.8"}};
  }
  if (name == "dst") {
    return {{"alpha", "2"}, {"threshold_lr", "0.1"}, {"beta", "1"},
            {"init", "0.05"}};
  }
  if (name == "channel_prop") {
    return {{"decay", "0.5"}, {"prune_fraction", "0.5"}, {"warmup", "1"}};
  }
  return {};
}

core::TrainConfig conformance_cfg(const std::string& strategy) {
  core::TrainConfig cfg;
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.strategy = strategy;
  cfg.strategy_params = aggressive_params(strategy);
  cfg.epochs = 6;
  cfg.batch_size = 64;
  cfg.base_lr = 0.1f;
  cfg.weight_decay = 1e-4f;
  cfg.lr_milestones = {3, 5};
  cfg.reconfig_interval = 2;
  cfg.eval_interval = 2;
  return cfg;
}

void expect_params_bitwise(graph::Network& a, graph::Network& b) {
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel()) << "param " << i;
    for (std::int64_t q = 0; q < pa[i]->value.numel(); ++q) {
      ASSERT_EQ(pa[i]->value.data()[q], pb[i]->value.data()[q])
          << "param " << i << "[" << q << "]";
    }
  }
}

class StrategyConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StrategyConformanceTest, CheckpointResumeBitwise) {
  const std::string name = GetParam();
  auto data = data::SyntheticImageDataset(conformance_data());
  const fs::path dir = strategy_scratch_dir("resume_" + name);

  core::TrainConfig cfg = conformance_cfg(name);
  cfg.checkpoint_dir = dir.string();
  graph::Network full_net = conformance_net();
  core::PruneTrainer full(full_net, data, cfg);
  const core::TrainResult r_full = full.run();

  // Resume mid-phase, from the end-of-epoch-3 checkpoint, into a freshly
  // built dense network. The strategy's serialized state (masks,
  // thresholds, saliency) must land in the new trainer and replay the
  // remaining epochs bitwise.
  core::TrainConfig rcfg = conformance_cfg(name);
  rcfg.resume_from = (dir / "ckpt-epoch-3.bin").string();
  graph::Network res_net = conformance_net();
  core::PruneTrainer resumed(res_net, data, rcfg);
  const core::TrainResult r_res = resumed.run();

  ASSERT_EQ(r_res.epochs.size(), r_full.epochs.size());
  EXPECT_DOUBLE_EQ(r_res.epochs.back().train_loss,
                   r_full.epochs.back().train_loss);
  EXPECT_DOUBLE_EQ(r_res.epochs.back().lasso_loss,
                   r_full.epochs.back().lasso_loss);
  EXPECT_DOUBLE_EQ(r_res.final_test_acc, r_full.final_test_acc);
  EXPECT_EQ(r_res.final_channels, r_full.final_channels);
  expect_params_bitwise(full_net, res_net);
  fs::remove_all(dir);
}

TEST_P(StrategyConformanceTest, ResumeRejectsStrategyMismatch) {
  const std::string name = GetParam();
  auto data = data::SyntheticImageDataset(conformance_data());
  const fs::path dir = strategy_scratch_dir("mismatch_" + name);

  core::TrainConfig cfg = conformance_cfg(name);
  cfg.epochs = 2;
  cfg.checkpoint_dir = dir.string();
  graph::Network net = conformance_net();
  core::PruneTrainer trainer(net, data, cfg);
  (void)trainer.run();

  const std::string other = name == "dst" ? "channel_prop" : "dst";
  core::TrainConfig rcfg = conformance_cfg(other);
  rcfg.epochs = 2;
  rcfg.resume_from = (dir / "ckpt-latest.bin").string();
  graph::Network res_net = conformance_net();
  EXPECT_THROW(core::PruneTrainer(res_net, data, rcfg), std::runtime_error);
  fs::remove_all(dir);
}

TEST_P(StrategyConformanceTest, RollbackReplayBitwise) {
  const std::string name = GetParam();
  auto data = data::SyntheticImageDataset(conformance_data());
  const fs::path clean_dir = strategy_scratch_dir("rb_clean_" + name);
  const fs::path fault_dir = strategy_scratch_dir("rb_fault_" + name);

  core::TrainConfig clean_cfg = conformance_cfg(name);
  clean_cfg.checkpoint_dir = clean_dir.string();
  clean_cfg.max_rollbacks = 2;
  graph::Network clean_net = conformance_net();
  core::PruneTrainer clean(clean_net, data, clean_cfg);
  const core::TrainResult r_clean = clean.run();
  EXPECT_EQ(clean.recovery_report().rollbacks, 0);

  // A NaN gradient mid-epoch-3 triggers the guardian: rollback to the last
  // good checkpoint must restore the strategy state too, so the replay
  // (lr_cut=1, fault spent) reproduces the clean run bitwise.
  core::TrainConfig fault_cfg = conformance_cfg(name);
  fault_cfg.checkpoint_dir = fault_dir.string();
  fault_cfg.max_rollbacks = 2;
  fault_cfg.fault_spec = "nan-grad:epoch=3,step=1";
  fault_cfg.rollback_lr_cut = 1.0f;
  graph::Network fault_net = conformance_net();
  core::PruneTrainer faulty(fault_net, data, fault_cfg);
  const core::TrainResult r_fault = faulty.run();

  EXPECT_EQ(faulty.recovery_report().faults_injected, 1);
  EXPECT_EQ(faulty.recovery_report().rollbacks, 1);
  ASSERT_EQ(r_fault.epochs.size(), r_clean.epochs.size());
  EXPECT_DOUBLE_EQ(r_fault.epochs.back().train_loss,
                   r_clean.epochs.back().train_loss);
  EXPECT_EQ(r_fault.final_channels, r_clean.final_channels);
  expect_params_bitwise(clean_net, fault_net);
  fs::remove_all(clean_dir);
  fs::remove_all(fault_dir);
}

TEST_P(StrategyConformanceTest, ThreadsBitwise) {
  const std::string name = GetParam();
  auto data = data::SyntheticImageDataset(conformance_data());

  core::TrainConfig cfg1 = conformance_cfg(name);
  cfg1.num_threads = 1;
  graph::Network net1 = conformance_net();
  core::PruneTrainer t1(net1, data, cfg1);
  const core::TrainResult r1 = t1.run();

  core::TrainConfig cfg4 = conformance_cfg(name);
  cfg4.num_threads = 4;
  graph::Network net4 = conformance_net();
  core::PruneTrainer t4(net4, data, cfg4);
  const core::TrainResult r4 = t4.run();

  ASSERT_EQ(r1.epochs.size(), r4.epochs.size());
  for (std::size_t e = 0; e < r1.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(r1.epochs[e].train_loss, r4.epochs[e].train_loss) << e;
    EXPECT_DOUBLE_EQ(r1.epochs[e].lasso_loss, r4.epochs[e].lasso_loss) << e;
    EXPECT_EQ(r1.epochs[e].channels_alive, r4.epochs[e].channels_alive) << e;
  }
  EXPECT_DOUBLE_EQ(r1.final_test_acc, r4.final_test_acc);
  expect_params_bitwise(net1, net4);
}

TEST_P(StrategyConformanceTest, RespectsPruneMinChannelsFloor) {
  const std::string name = GetParam();
  auto data = data::SyntheticImageDataset(conformance_data());

  // A pathological zeroing threshold would prune every channel; the floor
  // guard must keep at least prune_min_channels per conv through both the
  // strategy's own masking and the reconfiguration surgery.
  core::TrainConfig cfg = conformance_cfg(name);
  cfg.threshold = 100.f;
  cfg.prune_min_channels = 2;
  cfg.health_checks = false;  // an all-dead prune proposal is the point
  graph::Network net = conformance_net();
  core::PruneTrainer trainer(net, data, cfg);
  (void)trainer.run();

  for (int id : net.nodes_of_type<nn::Conv2d>()) {
    if (!net.is_live(id)) continue;
    EXPECT_GE(net.layer_as<nn::Conv2d>(id).out_channels(), 2)
        << "conv node " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, StrategyConformanceTest,
    ::testing::ValuesIn(StrategyRegistry::global().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace pt::prune
