// End-to-end PruneTrainer tests: every policy runs, PruneTrain actually
// shrinks the model during training while learning the task, dynamic
// mini-batch adjustment grows the batch and rescales the LR, SSL's
// two-phase protocol costs more, and run determinism.
#include <gtest/gtest.h>

#include "core/dynamic_batch.h"
#include "core/trainer.h"
#include "cost/memory.h"
#include "models/builders.h"

namespace pt::core {
namespace {

data::SyntheticSpec tiny_data(std::int64_t classes = 4) {
  data::SyntheticSpec spec;
  spec.name = "tiny";
  spec.classes = classes;
  spec.channels = 3;
  spec.height = 8;
  spec.width = 8;
  spec.train_samples = 96;
  spec.test_samples = 64;
  spec.noise = 0.4f;
  spec.max_shift = 1;
  spec.seed = 5;
  return spec;
}

models::ModelConfig tiny_model(std::int64_t classes = 4) {
  models::ModelConfig cfg;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.classes = classes;
  cfg.width_mult = 0.25f;
  cfg.seed = 21;
  return cfg;
}

TrainConfig base_cfg() {
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  cfg.base_lr = 0.05f;
  cfg.weight_decay = 1e-4f;
  cfg.reconfig_interval = 3;
  cfg.strategy_params["ratio"] = "0.25";
  return cfg;
}

TEST(PruneTrainer, DensePolicyLearnsTask) {
  auto data = data::SyntheticImageDataset(tiny_data());
  auto net = models::build_resnet_basic(8, tiny_model());
  TrainConfig cfg = base_cfg();
  cfg.policy = PrunePolicy::kDense;
  cfg.epochs = 10;
  PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();
  EXPECT_GT(result.final_test_acc, 0.5);  // well above 25% chance
  EXPECT_EQ(result.epochs.size(), 10u);
  EXPECT_EQ(result.layers_removed, 0);
  // Dense training never changes FLOPs.
  EXPECT_DOUBLE_EQ(result.epochs.front().flops_per_sample_inf,
                   result.epochs.back().flops_per_sample_inf);
}

/// Harder data + a wider model: the regime where group-lasso pruning has
/// both redundancy to remove and gradient pressure to resist it.
data::SyntheticSpec pruning_data() {
  data::SyntheticSpec spec = tiny_data(8);
  spec.train_samples = 256;
  spec.test_samples = 128;
  spec.noise = 0.8f;
  spec.max_shift = 2;
  return spec;
}

models::ModelConfig pruning_model() {
  models::ModelConfig cfg = tiny_model(8);
  cfg.width_mult = 0.5f;
  return cfg;
}

TrainConfig pruning_cfg() {
  TrainConfig cfg = base_cfg();
  cfg.policy = PrunePolicy::kPruneTrain;
  cfg.epochs = 30;
  cfg.batch_size = 64;
  cfg.base_lr = 0.1f;
  cfg.lr_milestones = {15, 23};
  cfg.strategy_params["ratio"] = "0.3";
  cfg.strategy_params["boost"] = "200";  // proxy time compression (DESIGN.md)
  cfg.reconfig_interval = 5;
  cfg.eval_interval = 5;
  return cfg;
}

TEST(PruneTrainer, PruneTrainShrinksModelDuringTraining) {
  auto data = data::SyntheticImageDataset(pruning_data());
  auto net = models::build_resnet_basic(8, pruning_model());
  TrainConfig cfg = pruning_cfg();
  PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();
  EXPECT_GT(result.lambda, 0.f);
  // Channel counts must be non-increasing and strictly smaller by the end.
  for (std::size_t e = 1; e < result.epochs.size(); ++e) {
    EXPECT_LE(result.epochs[e].channels_alive, result.epochs[e - 1].channels_alive);
  }
  EXPECT_LT(result.final_channels, result.epochs.front().channels_alive);
  EXPECT_LT(result.final_inference_flops,
            result.epochs.front().flops_per_sample_inf);
  // Still learns something (above chance).
  EXPECT_GT(result.final_test_acc, 0.3);
}

TEST(PruneTrainer, LassoLossDecreasesUnderRegularization) {
  auto data = data::SyntheticImageDataset(tiny_data());
  auto net = models::build_resnet_basic(8, tiny_model());
  TrainConfig cfg = base_cfg();
  cfg.policy = PrunePolicy::kPruneTrain;
  cfg.epochs = 6;
  // Meaningful shrinkage pressure (without it, BN scale-invariance lets
  // gradient noise *grow* weight norms — see the "boost" parameter).
  cfg.strategy_params["boost"] = "100";
  cfg.reconfig_interval = 100;  // no reconfig: watch pure sparsification
  PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();
  EXPECT_LT(result.epochs.back().lasso_loss, result.epochs.front().lasso_loss);
}

TEST(PruneTrainer, SslRunsTwoPhasesAndCostsMore) {
  auto data = data::SyntheticImageDataset(tiny_data());
  auto net_ssl = models::build_resnet_basic(8, tiny_model());
  auto net_pt = models::build_resnet_basic(8, tiny_model());
  TrainConfig cfg = base_cfg();
  cfg.epochs = 6;
  cfg.policy = PrunePolicy::kSSL;
  PruneTrainer ssl(net_ssl, data, cfg);
  const auto r_ssl = ssl.run();
  EXPECT_EQ(r_ssl.epochs.size(), 12u);  // dense phase + sparsify phase

  cfg.policy = PrunePolicy::kPruneTrain;
  PruneTrainer pt(net_pt, data, cfg);
  const auto r_pt = pt.run();
  EXPECT_GT(r_ssl.total_train_flops, 1.5 * r_pt.total_train_flops);
}

TEST(PruneTrainer, OneShotReconfiguresExactlyOnce) {
  auto data = data::SyntheticImageDataset(tiny_data());
  auto net = models::build_resnet_basic(8, tiny_model());
  TrainConfig cfg = base_cfg();
  cfg.policy = PrunePolicy::kOneShot;
  cfg.epochs = 8;
  cfg.one_shot_epoch = 4;
  PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();
  std::int64_t reconfigs = 0;
  for (const auto& e : result.epochs) reconfigs += e.reconfigured ? 1 : 0;
  EXPECT_LE(reconfigs, 1);
  // FLOPs before the one-shot epoch are constant (dense).
  EXPECT_DOUBLE_EQ(result.epochs[0].flops_per_sample_inf,
                   result.epochs[2].flops_per_sample_inf);
}

TEST(PruneTrainer, DeterministicAcrossRuns) {
  auto data = data::SyntheticImageDataset(tiny_data());
  auto net1 = models::build_resnet_basic(8, tiny_model());
  auto net2 = models::build_resnet_basic(8, tiny_model());
  TrainConfig cfg = base_cfg();
  cfg.epochs = 5;
  PruneTrainer t1(net1, data, cfg);
  PruneTrainer t2(net2, data, cfg);
  const auto r1 = t1.run();
  const auto r2 = t2.run();
  ASSERT_EQ(r1.epochs.size(), r2.epochs.size());
  for (std::size_t e = 0; e < r1.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(r1.epochs[e].train_loss, r2.epochs[e].train_loss);
    EXPECT_EQ(r1.epochs[e].channels_alive, r2.epochs[e].channels_alive);
  }
  EXPECT_DOUBLE_EQ(r1.final_test_acc, r2.final_test_acc);
}

TEST(PruneTrainer, HigherRatioPrunesMore) {
  auto data = data::SyntheticImageDataset(pruning_data());
  auto weak_net = models::build_resnet_basic(8, pruning_model());
  auto strong_net = models::build_resnet_basic(8, pruning_model());
  TrainConfig cfg = pruning_cfg();
  cfg.strategy_params["ratio"] = "0.1";
  PruneTrainer weak(weak_net, data, cfg);
  const auto r_weak = weak.run();
  cfg.strategy_params["ratio"] = "0.3";
  PruneTrainer strong(strong_net, data, cfg);
  const auto r_strong = strong.run();
  EXPECT_LT(r_strong.final_channels, r_weak.final_channels);
  EXPECT_LE(r_strong.total_train_flops, r_weak.total_train_flops);
}

TEST(PruneTrainer, MetricsAreInternallyConsistent) {
  auto data = data::SyntheticImageDataset(tiny_data());
  auto net = models::build_resnet_basic(8, tiny_model());
  TrainConfig cfg = base_cfg();
  cfg.epochs = 4;
  PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();
  double flops = 0, bn = 0, comm = 0;
  for (const auto& e : result.epochs) {
    flops += e.epoch_train_flops;
    bn += e.epoch_bn_traffic;
    comm += e.comm_bytes_per_gpu;
    EXPECT_GT(e.memory_bytes, 0);
    EXPECT_GT(e.gpu_time_modeled, 0);
    EXPECT_GE(e.train_acc, 0);
    EXPECT_LE(e.train_acc, 1);
  }
  EXPECT_DOUBLE_EQ(flops, result.total_train_flops);
  EXPECT_DOUBLE_EQ(bn, result.total_bn_traffic);
  EXPECT_DOUBLE_EQ(comm, result.total_comm_bytes);
}

TEST(PruneTrainer, SparsityMonitorRecordsWhenEnabled) {
  auto data = data::SyntheticImageDataset(tiny_data());
  auto net = models::build_resnet_basic(8, tiny_model());
  TrainConfig cfg = base_cfg();
  cfg.epochs = 4;
  cfg.record_sparsity = true;
  PruneTrainer trainer(net, data, cfg);
  trainer.run();
  ASSERT_NE(trainer.sparsity_monitor(), nullptr);
  EXPECT_EQ(trainer.sparsity_monitor()->history()[0].max_abs.size(), 4u);
}

TEST(DynamicBatch, GrowsBatchWhenMemoryAllows) {
  auto net = models::build_resnet_basic(8, tiny_model());
  cost::MemoryModel mem(net, {3, 8, 8});
  DynamicBatchConfig cfg;
  cfg.enabled = true;
  cfg.granularity = 16;
  cfg.max_batch = 256;
  cfg.device_memory_bytes = mem.training_bytes(96);  // fits exactly 96
  DynamicBatchAdjuster adj(cfg);
  const auto a = adj.propose(net, {3, 8, 8}, 32);
  EXPECT_EQ(a.new_batch, 96);
  EXPECT_TRUE(a.changed);
  EXPECT_FLOAT_EQ(a.lr_scale, 3.f);
}

TEST(DynamicBatch, NeverShrinksAndRespectsCap) {
  auto net = models::build_resnet_basic(8, tiny_model());
  DynamicBatchConfig cfg;
  cfg.enabled = true;
  cfg.granularity = 16;
  cfg.max_batch = 64;
  cfg.device_memory_bytes = 1.0;  // nothing fits
  DynamicBatchAdjuster adj(cfg);
  const auto a = adj.propose(net, {3, 8, 8}, 48);
  EXPECT_EQ(a.new_batch, 48);  // unchanged, never below current
  EXPECT_FALSE(a.changed);

  cfg.device_memory_bytes = 1e18;
  DynamicBatchAdjuster adj2(cfg);
  const auto b = adj2.propose(net, {3, 8, 8}, 48);
  EXPECT_EQ(b.new_batch, 64);  // capped
}

TEST(DynamicBatch, DisabledIsIdentity) {
  auto net = models::build_resnet_basic(8, tiny_model());
  DynamicBatchConfig cfg;
  cfg.enabled = false;
  cfg.device_memory_bytes = 1e18;
  DynamicBatchAdjuster adj(cfg);
  const auto a = adj.propose(net, {3, 8, 8}, 32);
  EXPECT_EQ(a.new_batch, 32);
  EXPECT_FALSE(a.changed);
  EXPECT_FLOAT_EQ(a.lr_scale, 1.f);
}

TEST(PruneTrainer, DynamicBatchGrowsDuringPruning) {
  auto data = data::SyntheticImageDataset(tiny_data());
  auto net = models::build_resnet_basic(8, tiny_model());
  cost::MemoryModel mem(net, {3, 8, 8});
  TrainConfig cfg = base_cfg();
  cfg.epochs = 12;
  cfg.strategy_params["ratio"] = "0.3";
  cfg.batch_size = 24;
  cfg.dynamic_batch.enabled = true;
  cfg.dynamic_batch.granularity = 8;
  cfg.dynamic_batch.max_batch = 96;
  // Capacity = initial model at batch 24 (the paper's setup: start at the
  // largest batch that fits; growth headroom comes from pruning).
  cfg.dynamic_batch.device_memory_bytes = mem.training_bytes(24);
  PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();
  EXPECT_GE(result.epochs.back().batch_size, result.epochs.front().batch_size);
  // LR scaling rule: whenever the batch grew, lr grew proportionally
  // (up to schedule decay, which is off here).
  for (std::size_t e = 1; e < result.epochs.size(); ++e) {
    const auto& prev = result.epochs[e - 1];
    const auto& cur = result.epochs[e];
    if (cur.batch_size != prev.batch_size) {
      EXPECT_NEAR(cur.lr / prev.lr,
                  double(cur.batch_size) / double(prev.batch_size), 1e-5);
    }
  }
}

TEST(ToString, PolicyNames) {
  EXPECT_EQ(to_string(PrunePolicy::kDense), "Dense");
  EXPECT_EQ(to_string(PrunePolicy::kPruneTrain), "PruneTrain");
  EXPECT_EQ(to_string(PrunePolicy::kSSL), "SSL");
  EXPECT_EQ(to_string(PrunePolicy::kOneShot), "OneShot");
}

// ---------------------------------------------------------------------------
// TrainConfig strategy validation: non-lasso strategies reject unknown
// parameters and the group-lasso-only protocol policies.

TEST(TrainConfigStrategy, UnknownStrategyOrParamThrows) {
  TrainConfig cfg = base_cfg();
  cfg.strategy = "no_such_strategy";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  TrainConfig cfg2 = base_cfg();
  cfg2.strategy = "dst";
  cfg2.strategy_params.clear();
  cfg2.strategy_params["bogus"] = "1";
  EXPECT_THROW(cfg2.validate(), std::invalid_argument);
}

TEST(TrainConfigStrategy, ProtocolPoliciesRequireGroupLasso) {
  TrainConfig cfg = base_cfg();
  cfg.policy = PrunePolicy::kSSL;
  cfg.strategy = "channel_prop";
  cfg.strategy_params.clear();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  TrainConfig cfg2 = base_cfg();
  cfg2.policy = PrunePolicy::kOneShot;
  cfg2.one_shot_epoch = 2;
  cfg2.strategy = "dst";
  cfg2.strategy_params.clear();
  EXPECT_THROW(cfg2.validate(), std::invalid_argument);
}

TEST(TrainConfigCodec, UnknownCodecOrParamThrows) {
  TrainConfig cfg = base_cfg();
  cfg.replicas = 2;
  cfg.codec = "no_such_codec";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // A valid codec name with a parameter belonging to a different codec.
  TrainConfig cfg2 = base_cfg();
  cfg2.replicas = 2;
  cfg2.codec = "dense";
  cfg2.codec_params["threshold_scale"] = "1.5";
  EXPECT_THROW(cfg2.validate(), std::invalid_argument);

  TrainConfig cfg3 = base_cfg();
  cfg3.replicas = 2;
  cfg3.codec = "twobit";
  cfg3.codec_params["threshold_scale"] = "not_a_number";
  EXPECT_THROW(cfg3.validate(), std::invalid_argument);

  // Values std::stof parses but the encoder cannot use.
  for (const char* bad : {"nan", "inf", "0", "-1"}) {
    TrainConfig cfg4 = base_cfg();
    cfg4.replicas = 2;
    cfg4.codec = "twobit";
    cfg4.codec_params["threshold_scale"] = bad;
    EXPECT_THROW(cfg4.validate(), std::invalid_argument) << bad;
  }
  for (const char* bad : {"nan", "inf"}) {
    TrainConfig cfg5 = base_cfg();
    cfg5.strategy_params["boost"] = bad;
    EXPECT_THROW(cfg5.validate(), std::invalid_argument) << bad;
  }
}

TEST(TrainConfigCodec, CompressionRequiresReplicas) {
  // Gradient compression only applies to the simulated allreduce; a
  // single-device run with a non-dense codec is a configuration error.
  TrainConfig cfg = base_cfg();
  cfg.replicas = 1;
  cfg.codec = "twobit";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  TrainConfig ok = base_cfg();
  ok.replicas = 1;
  ok.codec = "dense";
  EXPECT_NO_THROW(ok.validate());

  TrainConfig ok2 = base_cfg();
  ok2.replicas = 2;
  ok2.codec = "twobit";
  ok2.codec_params["threshold_scale"] = "1.5";
  EXPECT_NO_THROW(ok2.validate());
}

}  // namespace
}  // namespace pt::core
