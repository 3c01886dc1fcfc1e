// Tests for the paper's optional / extension features: fine-tuning after
// pruning, the size-normalized penalty ablation (Sec. 4.1), and the
// square-root LR scaling rule.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dynamic_batch.h"
#include "cost/memory.h"
#include "core/trainer.h"
#include "models/builders.h"
#include "nn/conv2d.h"
#include "prune/group_lasso.h"

namespace pt {
namespace {

data::SyntheticSpec small_data() {
  data::SyntheticSpec spec;
  spec.classes = 4;
  spec.height = 8;
  spec.width = 8;
  spec.train_samples = 96;
  spec.test_samples = 48;
  spec.noise = 0.6f;
  spec.seed = 5;
  return spec;
}

models::ModelConfig small_model() {
  models::ModelConfig cfg;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.classes = 4;
  cfg.width_mult = 0.25f;
  return cfg;
}

// --- Fine-tuning ---------------------------------------------------------------

TEST(FineTune, AddsEpochsWithoutRegularizationOrPruning) {
  data::SyntheticImageDataset ds(small_data());
  auto net = models::build_resnet_basic(8, small_model());
  core::TrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 48;
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.strategy_params["boost"] = "100";
  cfg.reconfig_interval = 3;
  cfg.fine_tune_epochs = 4;
  core::PruneTrainer trainer(net, ds, cfg);
  const auto r = trainer.run();
  ASSERT_EQ(r.epochs.size(), 10u);
  // Fine-tune epochs keep the architecture fixed.
  const auto& ft0 = r.epochs[6];
  const auto& ft_last = r.epochs.back();
  EXPECT_EQ(ft0.channels_alive, ft_last.channels_alive);
  EXPECT_FALSE(ft_last.reconfigured);
  // Fine-tuning runs at the decayed LR, not the base LR.
  EXPECT_LE(ft0.lr, cfg.base_lr + 1e-6f);
}

TEST(FineTune, DensePolicyIgnoresFineTune) {
  data::SyntheticImageDataset ds(small_data());
  auto net = models::build_resnet_basic(8, small_model());
  core::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 48;
  cfg.policy = core::PrunePolicy::kDense;
  cfg.fine_tune_epochs = 5;
  core::PruneTrainer trainer(net, ds, cfg);
  const auto r = trainer.run();
  EXPECT_EQ(r.epochs.size(), 4u);
}

// --- Size-normalized penalty ------------------------------------------------------

TEST(SizeNormalizedPenalty, MeanMultiplierIsOne) {
  // Normalization is chosen so the average multiplier is 1: for uniform
  // group sizes, normalized and global losses coincide.
  graph::Network net;
  Rng rng(1);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(4, 4, 3, 1, 1, rng);
  const int c = net.add_layer(conv, input);
  net.set_output(c);
  net.info.first_conv = -1;  // all groups have size 4*9 = 36
  prune::GroupLassoRegularizer reg(net);
  const double global = reg.loss();
  reg.set_size_normalized(true);
  EXPECT_NEAR(reg.loss(), global, 1e-9 * global);
}

TEST(SizeNormalizedPenalty, WeightsLargeGroupsMore) {
  // Two convs with very different group sizes: the size-normalized loss
  // must weight the large-group conv more than the global loss does.
  graph::Network net;
  Rng rng(2);
  const int input = net.add_input();
  auto small = std::make_shared<nn::Conv2d>(2, 2, 1, 1, 0, rng);
  const int n1 = net.add_layer(small, input);
  auto large = std::make_shared<nn::Conv2d>(2, 2, 5, 1, 2, rng);
  const int n2 = net.add_layer(large, n1);
  net.set_output(n2);
  net.info.first_conv = -1;

  prune::GroupLassoRegularizer reg(net);
  // Zero the large conv: remaining loss comes from the small conv only.
  auto& lw = net.layer_as<nn::Conv2d>(n2).weight();
  Tensor saved = lw.value.clone();
  lw.value.fill(0.f);
  const double small_only_global = reg.loss();
  reg.set_size_normalized(true);
  const double small_only_normalized = reg.loss();
  // The small conv's groups (size 2) fall below the mean group size, so
  // its normalized contribution is smaller.
  EXPECT_LT(small_only_normalized, small_only_global);
}

TEST(SizeNormalizedPenalty, GradientMatchesFiniteDifference) {
  graph::Network net;
  Rng rng(3);
  const int input = net.add_input();
  auto c1 = std::make_shared<nn::Conv2d>(2, 3, 1, 1, 0, rng);
  const int n1 = net.add_layer(c1, input);
  auto c2 = std::make_shared<nn::Conv2d>(3, 2, 3, 1, 1, rng);
  const int n2 = net.add_layer(c2, n1);
  net.set_output(n2);
  net.info.first_conv = n1;
  prune::GroupLassoRegularizer reg(net);
  reg.set_size_normalized(true);
  auto& w = net.layer_as<nn::Conv2d>(n2).weight();
  w.grad.fill(0.f);
  reg.add_gradients(0.7f);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < w.value.numel(); i += 4) {
    const float orig = w.value.data()[i];
    w.value.data()[i] = orig + eps;
    const double lp = 0.7 * reg.loss();
    w.value.data()[i] = orig - eps;
    const double lm = 0.7 * reg.loss();
    w.value.data()[i] = orig;
    EXPECT_NEAR(w.grad.data()[i], (lp - lm) / (2 * eps), 3e-3) << "at " << i;
  }
}

TEST(SizeNormalizedPenalty, ProximalUsesScaledKappa) {
  // One conv, two very different group-size directions (out-groups of
  // size c*rs=18 vs in-groups of size k*rs=9... use first_conv to isolate
  // out-groups at two kernel sizes instead).
  graph::Network net;
  Rng rng(4);
  const int input = net.add_input();
  auto c1 = std::make_shared<nn::Conv2d>(1, 1, 1, 1, 0, rng);
  c1->weight().value.fill(2.f);  // group size 1, norm 2
  const int n1 = net.add_layer(c1, input);
  auto c2 = std::make_shared<nn::Conv2d>(1, 1, 3, 1, 1, rng);
  c2->weight().value.fill(2.f);  // group size 9, norm 6
  const int n2 = net.add_layer(c2, n1);
  net.set_output(n2);
  net.info.first_conv = -1;
  prune::GroupLassoRegularizer reg(net);
  reg.set_size_normalized(true);
  // Group sqrt sizes: conv1 groups (out+in) sqrt(1)=1,1; conv2 sqrt(9)=3,3.
  // Mean = 2. kappa multipliers: conv1 0.5x, conv2 1.5x.
  reg.apply_proximal(0.4f);
  const float w1 = net.layer_as<nn::Conv2d>(n1).weight().value.at(0, 0, 0, 0);
  // conv1: two sequential proxes (out then in) at kappa 0.2 each on norm 2:
  // 2 * (1 - 0.2/2) = 1.8, then 1.8 * (1 - 0.2/1.8) = 1.6.
  EXPECT_NEAR(w1, 1.6f, 1e-4f);
}

TEST(SizeNormalizedPenalty, TrainerWiresTheFlag) {
  data::SyntheticImageDataset ds(small_data());
  auto a = models::build_resnet_basic(8, small_model());
  auto b = models::build_resnet_basic(8, small_model());
  core::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 48;
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.strategy_params["boost"] = "50";
  core::PruneTrainer ta(a, ds, cfg);
  const auto ra = ta.run();
  cfg.strategy_params["size_normalized"] = "true";
  core::PruneTrainer tb(b, ds, cfg);
  const auto rb = tb.run();
  // Different penalty structure must produce different trajectories
  // (identical seeds otherwise).
  EXPECT_NE(ra.epochs.back().lasso_loss, rb.epochs.back().lasso_loss);
}

// --- LR scaling rules ------------------------------------------------------------------

TEST(LrScalingRule, SqrtRule) {
  auto net = models::build_resnet_basic(8, small_model());
  cost::MemoryModel mem(net, {3, 8, 8});
  core::DynamicBatchConfig cfg;
  cfg.enabled = true;
  cfg.granularity = 16;
  cfg.max_batch = 256;
  cfg.device_memory_bytes = mem.training_bytes(64);
  cfg.lr_rule = core::LrScalingRule::kSqrt;
  core::DynamicBatchAdjuster adj(cfg);
  const auto a = adj.propose(net, {3, 8, 8}, 16);
  EXPECT_EQ(a.new_batch, 64);
  EXPECT_NEAR(a.lr_scale, 2.f, 1e-5f);  // sqrt(4x)
  cfg.lr_rule = core::LrScalingRule::kLinear;
  core::DynamicBatchAdjuster adj2(cfg);
  EXPECT_NEAR(adj2.propose(net, {3, 8, 8}, 16).lr_scale, 4.f, 1e-5f);
}

}  // namespace
}  // namespace pt
