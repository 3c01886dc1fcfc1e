// Checkpoint/resume subsystem tests: the named state-dict API, checkpoint
// round trips across reconfiguration, bitwise-deterministic resume of an
// interrupted PruneTrain run, corrupted-file rejection (CRC footer), atomic
// writes, and TrainConfig validation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/trainer.h"
#include "models/builders.h"
#include "util/fileio.h"

namespace pt {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory. The pid suffix keeps test_ckpt and
/// test_ckpt_asan (same tests, sanitized binary) from colliding when ctest
/// runs them concurrently.
fs::path scratch_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("pt_ckpt_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

data::SyntheticSpec pruning_data() {
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

models::ModelConfig pruning_model() {
  models::ModelConfig cfg;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.classes = 8;
  cfg.width_mult = 0.5f;
  cfg.seed = 21;
  return cfg;
}

/// A short run that actually reconfigures before the resume point: boosted
/// lambda, reconfiguration every 2 epochs, one fine-tune epoch at the end.
core::TrainConfig pruning_cfg() {
  core::TrainConfig cfg;
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.epochs = 6;
  cfg.batch_size = 64;
  cfg.base_lr = 0.1f;
  cfg.weight_decay = 1e-4f;
  cfg.lr_milestones = {3, 5};
  cfg.strategy_params["ratio"] = "0.3";
  // Proxy time compression (see DESIGN.md), strong enough that the
  // first reconfiguration at the end of epoch 1 already removes channels.
  cfg.strategy_params["boost"] = "2000";
  cfg.reconfig_interval = 2;
  cfg.eval_interval = 2;
  cfg.fine_tune_epochs = 1;
  cfg.record_sparsity = true;
  return cfg;
}

/// `s`'s fields in for_each_field order, as doubles (exact for these values).
template <class S>
std::vector<std::pair<std::string, double>> fields_of(const S& s) {
  std::vector<std::pair<std::string, double>> out;
  core::for_each_field(s, [&out](const char* name, const auto& v) {
    out.emplace_back(name, static_cast<double>(v));
  });
  return out;
}

/// Every EpochStats field of `a` and `b` is equal, bitwise.
void expect_stats_equal(const core::EpochStats& a, core::EpochStats b,
                        bool compare_wall) {
  // Wall-clock is real elapsed time: identical only when `b`'s entry is a
  // verbatim checkpointed copy of `a`'s, never for re-trained epochs.
  if (!compare_wall) b.wall_seconds = a.wall_seconds;
  EXPECT_EQ(fields_of(a), fields_of(b));
}

// ---------------------------------------------------------------------------
// Named state-dict API (Network::state / Layer::state).

TEST(NetworkState, NamesRolesAndGrouping) {
  auto net = models::build_resnet_basic(8, pruning_model());
  const auto entries = net.state();
  ASSERT_FALSE(entries.empty());

  bool saw_stem_weight = false, saw_bn_buffer = false, saw_fc = false,
       saw_momentum = false;
  for (const auto& e : entries) {
    ASSERT_NE(e.tensor, nullptr) << e.name;
    if (e.name == "stem.conv.weight" && e.role == nn::StateRole::kParam) {
      saw_stem_weight = true;
    }
    if (e.name == "stem.bn.running_mean") {
      EXPECT_EQ(e.role, nn::StateRole::kBuffer);
      saw_bn_buffer = true;
    }
    if (e.name == "head.fc.weight" && e.role == nn::StateRole::kParam) {
      saw_fc = true;
    }
    if (e.role == nn::StateRole::kMomentum) saw_momentum = true;
  }
  EXPECT_TRUE(saw_stem_weight);
  EXPECT_TRUE(saw_bn_buffer);
  EXPECT_TRUE(saw_fc);
  EXPECT_TRUE(saw_momentum);

  // Grouping the entries recovers exactly the Param list the positional API
  // exposes, in the same order.
  const auto named = nn::group_params(entries);
  const auto params = net.params();
  ASSERT_EQ(named.size(), params.size());
  for (std::size_t i = 0; i < named.size(); ++i) {
    EXPECT_EQ(named[i].value, &params[i]->value) << named[i].name;
    EXPECT_EQ(named[i].grad, &params[i]->grad) << named[i].name;
    EXPECT_EQ(named[i].momentum, &params[i]->momentum) << named[i].name;
  }
}

TEST(NetworkState, RoleNames) {
  EXPECT_EQ(nn::to_string(nn::StateRole::kParam), "param");
  EXPECT_EQ(nn::to_string(nn::StateRole::kGrad), "grad");
  EXPECT_EQ(nn::to_string(nn::StateRole::kMomentum), "momentum");
  EXPECT_EQ(nn::to_string(nn::StateRole::kBuffer), "buffer");
}

// ---------------------------------------------------------------------------
// Checkpoint round trip.

TEST(Checkpoint, RoundTripRestoresReconfiguredNetworkExactly) {
  exec::ExecContext ctx(1);
  auto data = data::SyntheticImageDataset(pruning_data());
  auto net = models::build_resnet_basic(8, pruning_model());
  core::TrainConfig cfg = pruning_cfg();
  cfg.epochs = 4;  // two reconfigurations
  cfg.fine_tune_epochs = 0;
  core::PruneTrainer trainer(net, data, cfg);
  trainer.run();

  const fs::path dir = scratch_dir("roundtrip");
  const std::string path = (dir / "model.bin").string();
  ckpt::Checkpoint::capture(net).save(path);
  ckpt::Checkpoint loaded = ckpt::Checkpoint::load(path);
  graph::Network restored = loaded.restore_network();

  // Same node count (dead placeholders preserved → NetworkInfo stays valid)
  // and same structural annotations.
  ASSERT_EQ(restored.num_nodes(), net.num_nodes());
  EXPECT_EQ(restored.output(), net.output());
  EXPECT_EQ(restored.info.first_conv, net.info.first_conv);
  EXPECT_EQ(restored.info.classifier, net.info.classifier);
  ASSERT_EQ(restored.info.blocks.size(), net.info.blocks.size());
  for (std::size_t i = 0; i < net.info.blocks.size(); ++i) {
    EXPECT_EQ(restored.info.blocks[i].removed, net.info.blocks[i].removed);
    EXPECT_EQ(restored.info.blocks[i].add_node, net.info.blocks[i].add_node);
  }

  // Every named tensor (params, momentum, BN stats) is bit-exact.
  const auto a = net.state();
  const auto b = restored.state();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].role, b[i].role);
    if (a[i].role == nn::StateRole::kGrad) continue;  // transient, not saved
    const auto sa = a[i].tensor->span();
    const auto sb = b[i].tensor->span();
    ASSERT_EQ(sa.size(), sb.size()) << a[i].name;
    for (std::size_t k = 0; k < sa.size(); ++k) {
      ASSERT_EQ(sa[k], sb[k]) << a[i].name << "[" << k << "]";
    }
  }

  // And the restored model computes the same function, bit for bit.
  Tensor out_a = net.forward(ctx, data.test_images(), false);
  Tensor out_b = restored.forward(ctx, data.test_images(), false);
  const auto spa = out_a.span();
  const auto spb = out_b.span();
  ASSERT_EQ(spa.size(), spb.size());
  for (std::size_t k = 0; k < spa.size(); ++k) ASSERT_EQ(spa[k], spb[k]);

  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crash-safe resume (the tentpole): resuming from the mid-run checkpoint
// reproduces the uninterrupted run bitwise, across reconfigurations, the
// LR schedule, the final prune, and the fine-tune phase.

TEST(Resume, BitwiseIdenticalToUninterruptedRun) {
  auto data = data::SyntheticImageDataset(pruning_data());
  const fs::path dir = scratch_dir("resume");

  core::TrainConfig cfg = pruning_cfg();
  cfg.checkpoint_dir = (dir / "ckpts").string();
  auto net_full = models::build_resnet_basic(8, pruning_model());
  core::PruneTrainer full(net_full, data, cfg);
  const auto r_full = full.run();
  ASSERT_EQ(r_full.epochs.size(), 7u);  // 6 main + 1 fine-tune

  // The model reconfigured before the resume point, so the checkpoint
  // carries a genuinely shrunk topology, not the dense one.
  EXPECT_GT(r_full.lambda, 0.f);
  EXPECT_LT(r_full.epochs[2].channels_alive, r_full.epochs[0].channels_alive);

  // One checkpoint per epoch, plus the rolling latest.
  for (std::int64_t e = 1; e <= 7; ++e) {
    EXPECT_TRUE(fs::exists(fs::path(cfg.checkpoint_dir) /
                           ("ckpt-epoch-" + std::to_string(e) + ".bin")));
  }
  EXPECT_TRUE(fs::exists(fs::path(cfg.checkpoint_dir) / "ckpt-latest.bin"));

  // Resume from epoch 3 into a freshly built (dense) network and trainer.
  core::TrainConfig rcfg = pruning_cfg();
  rcfg.resume_from = (fs::path(cfg.checkpoint_dir) / "ckpt-epoch-3.bin").string();
  auto net_res = models::build_resnet_basic(8, pruning_model());
  core::PruneTrainer resumed(net_res, data, rcfg);
  const auto r_res = resumed.run();

  ASSERT_EQ(r_res.epochs.size(), r_full.epochs.size());
  for (std::size_t e = 0; e < r_full.epochs.size(); ++e) {
    // Epochs [0,3) are the checkpointed copies (verbatim, wall-clock
    // included); epochs [3,7) were re-trained and must match bitwise in
    // every field except real elapsed time.
    expect_stats_equal(r_full.epochs[e], r_res.epochs[e], e < 3);
  }
  // The totals too, all but the elapsed wall time.
  core::TrainResult res_totals = r_res;
  res_totals.total_wall_seconds = r_full.total_wall_seconds;
  EXPECT_EQ(fields_of(res_totals), fields_of(r_full));

  // The sparsity monitor's recorded trajectories also carry across the
  // checkpoint boundary.
  ASSERT_NE(full.sparsity_monitor(), nullptr);
  ASSERT_NE(resumed.sparsity_monitor(), nullptr);
  const auto& hf = full.sparsity_monitor()->history();
  const auto& hr = resumed.sparsity_monitor()->history();
  ASSERT_EQ(hf.size(), hr.size());
  for (std::size_t i = 0; i < hf.size(); ++i) {
    EXPECT_EQ(hf[i].node, hr[i].node);
    EXPECT_EQ(hf[i].name, hr[i].name);
    EXPECT_EQ(hf[i].epochs, hr[i].epochs);
    EXPECT_EQ(hf[i].max_abs, hr[i].max_abs);
  }

  // Resuming from the *last* checkpoint (taken during fine-tuning, after
  // the final prune) re-runs nothing and must not repeat the post-training
  // reconfiguration or the fine-tune LR decay.
  core::TrainConfig lcfg = pruning_cfg();
  lcfg.resume_from = (fs::path(cfg.checkpoint_dir) / "ckpt-latest.bin").string();
  auto net_last = models::build_resnet_basic(8, pruning_model());
  core::PruneTrainer from_last(net_last, data, lcfg);
  const auto r_last = from_last.run();
  ASSERT_EQ(r_last.epochs.size(), r_full.epochs.size());
  for (std::size_t e = 0; e < r_full.epochs.size(); ++e) {
    expect_stats_equal(r_full.epochs[e], r_last.epochs[e], true);
  }
  EXPECT_DOUBLE_EQ(r_last.final_test_acc, r_full.final_test_acc);
  EXPECT_EQ(r_last.final_channels, r_full.final_channels);
  EXPECT_EQ(r_last.layers_removed, r_full.layers_removed);

  fs::remove_all(dir);
}

// Resume for every policy: each case resumes one policy's run from one
// numbered checkpoint and must reproduce the uninterrupted run field for
// field, final model state included. The checkpoints sit inside a phase,
// on a phase boundary (the non-phase steps between the two phases still
// have to run), and inside the fine-tune phase (they must not run again).
struct ResumeCase {
  const char* name;
  core::PrunePolicy policy;
  std::int64_t epochs;
  std::int64_t fine_tune_epochs;
  std::int64_t resume_epoch;  ///< resumes from ckpt-epoch-<N>.bin
};

class ResumeEveryPolicy : public ::testing::TestWithParam<ResumeCase> {};

TEST_P(ResumeEveryPolicy, MatchesUninterruptedRun) {
  const ResumeCase& c = GetParam();
  auto data = data::SyntheticImageDataset(pruning_data());
  const fs::path dir = scratch_dir(std::string("policy_") + c.name);
  const auto make_cfg = [&c] {
    core::TrainConfig cfg = pruning_cfg();
    cfg.policy = c.policy;
    cfg.epochs = c.epochs;
    cfg.fine_tune_epochs = c.fine_tune_epochs;
    cfg.one_shot_epoch = 2;  // reconfigures at the end of epoch 1
    return cfg;
  };

  core::TrainConfig cfg = make_cfg();
  cfg.checkpoint_dir = (dir / "ckpts").string();
  auto net_full = models::build_resnet_basic(8, pruning_model());
  const auto r_full = core::PruneTrainer(net_full, data, cfg).run();
  if (c.policy == core::PrunePolicy::kDense) {
    EXPECT_EQ(r_full.final_channels, r_full.epochs[0].channels_alive);
  } else {
    // The schedule's reconfigurations really prune.
    EXPECT_LT(r_full.final_channels, r_full.epochs[0].channels_alive);
  }

  core::TrainConfig rcfg = make_cfg();
  rcfg.resume_from = (fs::path(cfg.checkpoint_dir) /
                      ("ckpt-epoch-" + std::to_string(c.resume_epoch) + ".bin"))
                         .string();
  auto net_res = models::build_resnet_basic(8, pruning_model());
  const auto r_res = core::PruneTrainer(net_res, data, rcfg).run();

  ASSERT_EQ(r_res.epochs.size(), r_full.epochs.size());
  for (std::size_t e = 0; e < r_full.epochs.size(); ++e) {
    expect_stats_equal(r_full.epochs[e], r_res.epochs[e],
                       static_cast<std::int64_t>(e) < c.resume_epoch);
  }
  core::TrainResult res_totals = r_res;
  res_totals.total_wall_seconds = r_full.total_wall_seconds;
  EXPECT_EQ(fields_of(res_totals), fields_of(r_full));

  const auto a = net_full.state();
  const auto b = net_res.state();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].name, b[i].name);
    if (a[i].role == nn::StateRole::kGrad) continue;  // transient, not saved
    const auto sa = a[i].tensor->span();
    const auto sb = b[i].tensor->span();
    ASSERT_EQ(std::vector<float>(sa.begin(), sa.end()),
              std::vector<float>(sb.begin(), sb.end()))
        << a[i].name;
  }
  fs::remove_all(dir);
}

// SSL runs 4 dense epochs (phase 0), 4 regularized ones (phase 1), then 2
// fine-tune epochs (phase 2); OneShot runs 4 epochs plus 1 of fine-tune.
INSTANTIATE_TEST_SUITE_P(
    Policies, ResumeEveryPolicy,
    ::testing::Values(
        ResumeCase{"SslInPhase0", core::PrunePolicy::kSSL, 4, 2, 2},
        ResumeCase{"SslAtPhase0To1", core::PrunePolicy::kSSL, 4, 2, 4},
        ResumeCase{"SslInPhase1", core::PrunePolicy::kSSL, 4, 2, 6},
        ResumeCase{"SslAtPhase1To2", core::PrunePolicy::kSSL, 4, 2, 8},
        ResumeCase{"SslInFineTune", core::PrunePolicy::kSSL, 4, 2, 9},
        ResumeCase{"OneShotBeforeShot", core::PrunePolicy::kOneShot, 4, 1, 1},
        ResumeCase{"OneShotAfterShot", core::PrunePolicy::kOneShot, 4, 1, 3},
        ResumeCase{"DenseMidRun", core::PrunePolicy::kDense, 4, 0, 2}),
    [](const ::testing::TestParamInfo<ResumeCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Corruption rejection: the CRC-32 footer catches bit flips and truncation
// before any field is parsed.

class CheckpointFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = scratch_dir("corrupt");
    auto net = models::build_resnet_basic(8, pruning_model());
    path_ = (dir_ / "good.bin").string();
    ckpt::Checkpoint::capture(net).save(path_);
    bytes_ = read_file_bytes(path_);
    ASSERT_GT(bytes_.size(), 16u);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write_variant(const std::string& name,
                            const std::vector<std::uint8_t>& bytes) {
    const std::string p = (dir_ / name).string();
    std::ofstream os(p, std::ios::binary);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    return p;
  }

  fs::path dir_;
  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(CheckpointFile, LoadsIntactFile) {
  EXPECT_NO_THROW(ckpt::Checkpoint::load(path_));
}

TEST_F(CheckpointFile, RejectsBitFlip) {
  auto bad = bytes_;
  bad[bad.size() / 2] ^= 0x40;  // one bit, mid-payload
  EXPECT_THROW(ckpt::Checkpoint::load(write_variant("flip.bin", bad)),
               std::runtime_error);
}

TEST_F(CheckpointFile, RejectsTruncation) {
  auto bad = bytes_;
  bad.resize(bad.size() / 2);
  EXPECT_THROW(ckpt::Checkpoint::load(write_variant("trunc.bin", bad)),
               std::runtime_error);
  EXPECT_THROW(ckpt::Checkpoint::load(write_variant("empty.bin", {})),
               std::runtime_error);
}

TEST_F(CheckpointFile, RejectsBadMagic) {
  auto bad = bytes_;
  bad[0] = 'X';
  EXPECT_THROW(ckpt::Checkpoint::load(write_variant("magic.bin", bad)),
               std::runtime_error);
}

TEST_F(CheckpointFile, RejectsTrailingGarbage) {
  auto bad = bytes_;
  bad.push_back(0);
  EXPECT_THROW(ckpt::Checkpoint::load(write_variant("trail.bin", bad)),
               std::runtime_error);
}

TEST_F(CheckpointFile, RejectsMissingFile) {
  EXPECT_THROW(ckpt::Checkpoint::load((dir_ / "nope.bin").string()),
               std::runtime_error);
}

TEST_F(CheckpointFile, AtomicSaveLeavesNoTempFile) {
  EXPECT_TRUE(fs::exists(path_));
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
}

// ---------------------------------------------------------------------------
// TrainConfig::validate (satellite): bad configs fail fast in the trainer
// constructor with the offending field named.

TEST(TrainConfigValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(core::TrainConfig{}.validate());
  EXPECT_NO_THROW(pruning_cfg().validate());
}

TEST(TrainConfigValidate, RejectsBadFields) {
  const auto expect_rejects = [](auto mutate, const std::string& field) {
    core::TrainConfig cfg;
    mutate(cfg);
    try {
      cfg.validate();
      FAIL() << field << " should have been rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  expect_rejects([](auto& c) { c.epochs = 0; }, "epochs");
  expect_rejects([](auto& c) { c.epochs = -3; }, "epochs");
  expect_rejects([](auto& c) { c.batch_size = 0; }, "batch_size");
  expect_rejects([](auto& c) { c.base_lr = 0.f; }, "base_lr");
  expect_rejects([](auto& c) { c.base_lr = -0.1f; }, "base_lr");
  expect_rejects([](auto& c) { c.reconfig_interval = 0; }, "reconfig_interval");
  expect_rejects([](auto& c) { c.eval_interval = 0; }, "eval_interval");
  expect_rejects([](auto& c) { c.checkpoint_interval = 0; },
                 "checkpoint_interval");
  for (const char* ratio : {"0", "1", "-0.2"}) {
    expect_rejects([&](auto& c) { c.strategy_params["ratio"] = ratio; },
                   "ratio");
  }
  expect_rejects([](auto& c) { c.fine_tune_epochs = -1; }, "fine_tune_epochs");
  expect_rejects([](auto& c) { c.sdc_check_interval = 4; },
                 "sdc_check_interval");
}

TEST(TrainConfigValidate, TrainerConstructorValidates) {
  auto data = data::SyntheticImageDataset(pruning_data());
  auto net = models::build_resnet_basic(8, pruning_model());
  core::TrainConfig cfg = pruning_cfg();
  cfg.batch_size = -1;
  EXPECT_THROW(core::PruneTrainer(net, data, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace pt
