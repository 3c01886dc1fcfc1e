// Silent-data-corruption defense tests (ISSUE 7): state-digest
// determinism and sensitivity, cross-replica digest voting with in-place
// healing, the sdc-param / sdc-momentum / torn-ckpt fault kinds, the
// scrubbed checkpoint generation chain, and the end-to-end acceptance
// matrix — an injected finite bitflip on one replica is detected within
// one check interval and healed without a rollback (the healed run's
// final state is bitwise-identical to the fault-free run); a torn newest
// checkpoint makes recovery cascade to an older scrubbed generation; a
// vote with no strict majority escalates to the guardian.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/trainer.h"
#include "exec/context.h"
#include "models/builders.h"
#include "robust/fault.h"
#include "robust/health.h"
#include "robust/integrity.h"
#include "robust/recovery.h"

namespace pt {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory (pid-suffixed so the plain and .asan
/// binaries never collide under a concurrent ctest run).
fs::path scratch_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("pt_integrity_" + tag + "_" + std::to_string(::getpid()));
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

graph::Network small_net(std::uint64_t seed = 21) {
  models::ModelConfig mc;
  mc.image_h = 8;
  mc.image_w = 8;
  mc.classes = 8;
  mc.width_mult = 0.5f;
  mc.seed = seed;
  return models::build_resnet_basic(8, mc);
}

/// A short elastic PruneTrain run with the integrity monitor armed:
/// 3 replicas, a digest vote every 4 steps (= once per epoch at
/// batch_size 64 over 256 samples), per-epoch checkpoints, rollback
/// budget 2.
core::TrainConfig integrity_cfg(const std::string& dir) {
  core::TrainConfig cfg;
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.epochs = 6;
  cfg.batch_size = 64;
  cfg.base_lr = 0.1f;
  cfg.weight_decay = 1e-4f;
  cfg.lr_milestones = {3, 5};
  cfg.lasso_ratio = 0.3f;
  cfg.lasso_boost = 2000.f;  // proxy time compression; prunes by epoch 2
  cfg.reconfig_interval = 2;
  cfg.eval_interval = 2;
  cfg.checkpoint_dir = dir;
  cfg.max_rollbacks = 2;
  cfg.replicas = 3;
  cfg.sdc_check_interval = 4;
  return cfg;
}

/// Flips the low mantissa bit of one element of the first tensor carrying
/// `role` — a finite, silent perturbation the health monitor cannot see.
std::string flip_one_bit(graph::Network& net, nn::StateRole role) {
  for (const nn::StateEntry& e : net.state()) {
    if (e.role != role || e.tensor->numel() == 0) continue;
    std::uint32_t bits;
    std::memcpy(&bits, e.tensor->data(), sizeof(bits));
    bits ^= 1u;
    std::memcpy(e.tensor->data(), &bits, sizeof(bits));
    return e.name;
  }
  return "";
}

// ---------------------------------------------------------------------------
// State digests: deterministic, thread-invariant, sensitive to exactly the
// persistent state.

TEST(StateDigest, DeterministicAndThreadInvariant) {
  graph::Network a = small_net();
  graph::Network b = small_net();
  exec::ExecContext serial(1);
  exec::ExecContext pooled(4);

  const auto da = robust::compute_state_digest(a, serial);
  const auto db = robust::compute_state_digest(b, pooled);
  EXPECT_TRUE(da.comparable_with(db));
  EXPECT_EQ(da.state, db.state);
  EXPECT_EQ(da.topology, db.topology);
  ASSERT_EQ(da.tensors.size(), db.tensors.size());
  for (std::size_t i = 0; i < da.tensors.size(); ++i) {
    EXPECT_EQ(da.tensors[i].crc, db.tensors[i].crc) << da.tensors[i].name;
  }
  EXPECT_TRUE(da.diff(db).empty());
  // Wire size: one CRC word per tensor plus the two summary words.
  EXPECT_EQ(da.wire_bytes(),
            static_cast<std::int64_t>((da.tensors.size() + 2) * 4));
}

TEST(StateDigest, OneFlippedParamBitChangesTheDigestAndNamesTheTensor) {
  graph::Network a = small_net();
  graph::Network b = small_net();
  exec::ExecContext ctx(2);
  const std::string victim = flip_one_bit(b, nn::StateRole::kParam);
  ASSERT_FALSE(victim.empty());

  const auto da = robust::compute_state_digest(a, ctx);
  const auto db = robust::compute_state_digest(b, ctx);
  EXPECT_TRUE(da.comparable_with(db));  // same shapes — only bytes differ
  EXPECT_NE(da.state, db.state);
  const std::vector<std::string> bad = da.diff(db);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], victim);
}

TEST(StateDigest, CoversMomentumButNotShardLocalOrTransientState) {
  graph::Network a = small_net();
  exec::ExecContext ctx(2);
  const auto before = robust::compute_state_digest(a, ctx);

  // Gradients are transient (rewritten every step) and excluded.
  ASSERT_FALSE(flip_one_bit(a, nn::StateRole::kGrad).empty());
  EXPECT_EQ(robust::compute_state_digest(a, ctx).state, before.state);

  // BN running statistics are shard-local under data parallelism — each
  // replica folds its own shard's batch stats — so they are excluded too
  // (an honest cluster would otherwise never vote unanimously).
  ASSERT_FALSE(flip_one_bit(a, nn::StateRole::kBuffer).empty());
  EXPECT_EQ(robust::compute_state_digest(a, ctx).state, before.state);

  // Momentum is replica-invariant optimizer state and covered.
  ASSERT_FALSE(flip_one_bit(a, nn::StateRole::kMomentum).empty());
  EXPECT_NE(robust::compute_state_digest(a, ctx).state, before.state);
}

TEST(StateDigest, TopologyStampMakesReconfiguredModelsIncomparable) {
  graph::Network a = small_net();
  models::ModelConfig mc;
  mc.image_h = 8;
  mc.image_w = 8;
  mc.classes = 8;
  mc.width_mult = 1.0f;  // different channel widths -> different shapes
  mc.seed = 21;
  graph::Network b = models::build_resnet_basic(8, mc);
  exec::ExecContext ctx(1);

  const auto da = robust::compute_state_digest(a, ctx);
  const auto db = robust::compute_state_digest(b, ctx);
  EXPECT_FALSE(da.comparable_with(db));
}

TEST(StateDigest, StrategyStateIsPartOfTheDigest) {
  graph::Network a = small_net();
  exec::ExecContext ctx(1);
  std::vector<prune::StrategyStateItem> s1(1);
  s1[0].name = "mask";
  s1[0].f32 = {1.f, 0.f, 1.f};
  std::vector<prune::StrategyStateItem> s2 = s1;
  s2[0].f32[1] = 1.f;  // a corrupted mask reroutes pruning silently

  const auto d1 = robust::compute_state_digest(a, ctx, &s1);
  const auto d2 = robust::compute_state_digest(a, ctx, &s2);
  EXPECT_TRUE(d1.comparable_with(d2));
  EXPECT_NE(d1.state, d2.state);
  const std::vector<std::string> bad = d1.diff(d2);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], "strategy/mask");
}

TEST(IntegrityConfig, ValidatesAndSchedules) {
  robust::IntegrityConfig cfg;
  cfg.check_interval = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.check_interval = 4;
  EXPECT_NO_THROW(cfg.validate());

  robust::IntegrityMonitor mon(cfg);
  EXPECT_FALSE(mon.due(0));  // never before the first step
  EXPECT_FALSE(mon.due(3));
  EXPECT_TRUE(mon.due(4));
  EXPECT_TRUE(mon.due(8));
  robust::IntegrityMonitor off(robust::IntegrityConfig{});
  EXPECT_FALSE(off.due(4));
}

// ---------------------------------------------------------------------------
// Digest voting: unanimity, minority healing, no-quorum.

TEST(IntegrityMonitor, UnanimousVoteHealsNothing) {
  graph::Network r0 = small_net(), r1 = small_net(), r2 = small_net();
  exec::ExecContext ctx(2);
  robust::IntegrityMonitor mon(robust::IntegrityConfig{4});
  int heal_calls = 0;
  const auto out = mon.check_replicas(
      {{0, &r0}, {1, &r1}, {2, &r2}}, ctx, nullptr,
      [&](int, int) -> std::int64_t { ++heal_calls; return 0; });
  EXPECT_FALSE(out.mismatch);
  EXPECT_FALSE(out.no_quorum);
  EXPECT_TRUE(out.healed.empty());
  EXPECT_EQ(heal_calls, 0);
  // Modeled allgather: each of the 3 replicas sends its digest to the
  // other two.
  const auto one = robust::compute_state_digest(r0, ctx);
  EXPECT_EQ(out.digest_bytes, 3 * one.wire_bytes() * 2);
  EXPECT_EQ(mon.checks(), 1);
  EXPECT_EQ(mon.mismatches(), 0);
}

TEST(IntegrityMonitor, MinorityReplicaIsConvictedAndHealed) {
  graph::Network r0 = small_net(), r1 = small_net(), r2 = small_net();
  exec::ExecContext ctx(2);
  ASSERT_FALSE(flip_one_bit(r1, nn::StateRole::kParam).empty());

  robust::IntegrityMonitor mon(robust::IntegrityConfig{4});
  const auto heal = [&](int victim, int root) -> std::int64_t {
    // The trainer wires ElasticCluster::heal_replica here; the test heals
    // by the same full-state copy, replica-local.
    graph::Network* nets[] = {&r0, &r1, &r2};
    std::vector<nn::StateEntry> src = nets[root]->state();
    std::vector<nn::StateEntry> dst = nets[victim]->state();
    std::int64_t bytes = 0;
    for (std::size_t i = 0; i < src.size(); ++i) {
      std::memcpy(dst[i].tensor->data(), src[i].tensor->data(),
                  static_cast<std::size_t>(src[i].tensor->numel()) *
                      sizeof(float));
      bytes += src[i].tensor->numel() * 4;
    }
    return bytes;
  };
  const auto out =
      mon.check_replicas({{0, &r0}, {1, &r1}, {2, &r2}}, ctx, nullptr, heal);
  EXPECT_TRUE(out.mismatch);
  EXPECT_FALSE(out.no_quorum);
  ASSERT_EQ(out.healed.size(), 1u);
  EXPECT_EQ(out.healed[0], 1);
  EXPECT_EQ(out.healthy_root, 0);
  EXPECT_GT(out.heal_bytes, 0);
  EXPECT_NE(out.detail.find("replica 1"), std::string::npos);
  EXPECT_EQ(mon.mismatches(), 1);
  EXPECT_EQ(mon.heals(), 1);

  // After the heal all three replicas digest identically again.
  const auto d0 = robust::compute_state_digest(r0, ctx);
  const auto d1 = robust::compute_state_digest(r1, ctx);
  EXPECT_EQ(d0.state, d1.state);
}

TEST(IntegrityMonitor, EvenSplitIsNoQuorumAndHealsNothing) {
  graph::Network r0 = small_net(), r1 = small_net();
  exec::ExecContext ctx(1);
  ASSERT_FALSE(flip_one_bit(r1, nn::StateRole::kParam).empty());

  robust::IntegrityMonitor mon(robust::IntegrityConfig{4});
  int heal_calls = 0;
  const auto out = mon.check_replicas(
      {{0, &r0}, {1, &r1}}, ctx, nullptr,
      [&](int, int) -> std::int64_t { ++heal_calls; return 0; });
  EXPECT_TRUE(out.mismatch);
  EXPECT_TRUE(out.no_quorum);
  EXPECT_TRUE(out.healed.empty());
  EXPECT_EQ(heal_calls, 0);
  EXPECT_EQ(mon.heals(), 0);
}

TEST(IntegrityMonitor, SingleReplicaTriviallyPasses) {
  graph::Network r0 = small_net();
  exec::ExecContext ctx(1);
  robust::IntegrityMonitor mon(robust::IntegrityConfig{4});
  const auto out = mon.check_replicas({{0, &r0}}, ctx, nullptr,
                                      [](int, int) -> std::int64_t { return 0; });
  EXPECT_FALSE(out.mismatch);
  EXPECT_FALSE(out.no_quorum);
}

// ---------------------------------------------------------------------------
// The three new fault kinds.

TEST(FaultSpec, ParsesSdcAndTornCkptKinds) {
  const auto specs = robust::parse_fault_specs(
      "sdc-param:replica=1,step=3;sdc-momentum:replica=0,step=7,count=2;"
      "torn-ckpt:epoch=4");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].kind, robust::FaultSpec::Kind::kSdcParam);
  EXPECT_EQ(specs[0].replica, 1);
  EXPECT_EQ(specs[0].step, 3);
  EXPECT_EQ(specs[1].kind, robust::FaultSpec::Kind::kSdcMomentum);
  EXPECT_EQ(specs[1].count, 2);
  EXPECT_EQ(specs[2].kind, robust::FaultSpec::Kind::kTornCkpt);
  EXPECT_EQ(specs[2].epoch, 4);
}

TEST(FaultSpec, HelpDocumentsTheSdcKinds) {
  const std::string help = robust::fault_spec_help();
  for (const char* kind : {"sdc-param", "sdc-momentum", "torn-ckpt"}) {
    EXPECT_NE(help.find(kind), std::string::npos) << kind;
  }
}

TEST(FaultSpec, RejectsSdcTargetingANonexistentReplica) {
  const std::string spec = "sdc-param:replica=3,step=1";
  EXPECT_THROW(robust::validate_training_faults(spec, 3, false),
               std::invalid_argument);
  EXPECT_NO_THROW(robust::validate_training_faults(spec, 4, false));
  // The trainer routes --fault-spec through the same check.
  core::TrainConfig cfg;
  cfg.replicas = 2;
  cfg.fault_spec = "sdc-param:replica=2,step=1";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.fault_spec = "sdc-param:replica=1,step=1";
  EXPECT_NO_THROW(cfg.validate());
  // The new config knobs validate too.
  cfg = {};
  cfg.sdc_check_interval = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.keep_checkpoints = -2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(FaultInjector, SdcParamFlipsExactlyOneElementAndStaysFinite) {
  graph::Network net = small_net();
  graph::Network ref = small_net();
  auto injector =
      robust::FaultInjector::from_string("sdc-param:replica=1,step=3", 11);
  EXPECT_FALSE(injector.corrupt_state(net, 2, 1));  // wrong step
  EXPECT_FALSE(injector.corrupt_state(net, 3, 0));  // wrong replica
  EXPECT_TRUE(injector.corrupt_state(net, 3, 1));
  EXPECT_FALSE(injector.corrupt_state(net, 3, 1));  // count=1: spent

  std::int64_t changed = 0;
  auto pn = net.params();
  auto pr = ref.params();
  ASSERT_EQ(pn.size(), pr.size());
  for (std::size_t i = 0; i < pn.size(); ++i) {
    for (std::int64_t q = 0; q < pn[i]->value.numel(); ++q) {
      const float v = pn[i]->value.data()[q];
      ASSERT_TRUE(std::isfinite(v));  // silent by construction
      if (v != pr[i]->value.data()[q]) ++changed;
    }
  }
  EXPECT_EQ(changed, 1);
}

TEST(FaultInjector, SdcMomentumHitsMomentumNotValues) {
  graph::Network net = small_net();
  // Give momentum a nonzero baseline so a flip is observable.
  for (const nn::StateEntry& e : net.state()) {
    if (e.role == nn::StateRole::kMomentum) {
      for (std::int64_t q = 0; q < e.tensor->numel(); ++q) {
        e.tensor->data()[q] = 0.5f;
      }
    }
  }
  graph::Network ref = small_net();
  auto injector =
      robust::FaultInjector::from_string("sdc-momentum:step=0", 7);
  EXPECT_TRUE(injector.corrupt_state(net, 0, 0));

  std::int64_t value_changed = 0, momentum_changed = 0;
  auto pn = net.params();
  auto pr = ref.params();
  for (std::size_t i = 0; i < pn.size(); ++i) {
    for (std::int64_t q = 0; q < pn[i]->value.numel(); ++q) {
      if (pn[i]->value.data()[q] != pr[i]->value.data()[q]) ++value_changed;
      if (pn[i]->momentum.data()[q] != 0.5f) ++momentum_changed;
      ASSERT_TRUE(std::isfinite(pn[i]->momentum.data()[q]));
    }
  }
  EXPECT_EQ(value_changed, 0);
  EXPECT_EQ(momentum_changed, 1);
}

TEST(FaultInjector, TornCkptTruncatesThroughTheCrcFooter) {
  const fs::path dir = scratch_dir("torn");
  graph::Network net = small_net();
  const std::string path = (dir / "ckpt.bin").string();
  ckpt::Checkpoint::capture(net).save(path);
  const auto full_size = fs::file_size(path);

  auto injector = robust::FaultInjector::from_string("torn-ckpt:epoch=2", 3);
  EXPECT_FALSE(injector.corrupt_checkpoint_files({path}, 1));
  EXPECT_TRUE(injector.corrupt_checkpoint_files({path}, 2));
  EXPECT_LT(fs::file_size(path), full_size);
  EXPECT_THROW(ckpt::Checkpoint::load(path), std::exception);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Checkpoint generation chain + scrubber.

TEST(CheckpointScrubber, KeepLastKEvictsOldestFromDisk) {
  const fs::path dir = scratch_dir("chain");
  graph::Network net = small_net();
  ckpt::Checkpoint ck = ckpt::Checkpoint::capture(net);

  robust::CheckpointScrubber scrubber(2);
  EXPECT_THROW(robust::CheckpointScrubber(-1), std::invalid_argument);
  for (std::int64_t e = 1; e <= 4; ++e) {
    const std::string p =
        (dir / ("ckpt-epoch-" + std::to_string(e) + ".bin")).string();
    ck.save(p);
    scrubber.note_saved(p, e);
  }
  ASSERT_EQ(scrubber.generations().size(), 2u);
  EXPECT_EQ(scrubber.generations()[0].epoch, 3);
  EXPECT_EQ(scrubber.generations()[1].epoch, 4);
  EXPECT_EQ(scrubber.evicted(), 2);
  EXPECT_FALSE(fs::exists(dir / "ckpt-epoch-1.bin"));
  EXPECT_FALSE(fs::exists(dir / "ckpt-epoch-2.bin"));
  EXPECT_TRUE(fs::exists(dir / "ckpt-epoch-4.bin"));
  fs::remove_all(dir);
}

TEST(CheckpointScrubber, ScrubFlagsTornGenerationsAndCascades) {
  const fs::path dir = scratch_dir("scrub");
  graph::Network net = small_net();
  ckpt::Checkpoint ck = ckpt::Checkpoint::capture(net);
  exec::ExecContext ctx(2);

  robust::CheckpointScrubber scrubber(0);  // retain all
  std::vector<std::string> paths;
  for (std::int64_t e = 1; e <= 3; ++e) {
    const std::string p =
        (dir / ("ckpt-epoch-" + std::to_string(e) + ".bin")).string();
    ck.save(p);
    scrubber.note_saved(p, e);
    paths.push_back(p);
  }
  EXPECT_EQ(scrubber.scrub(ctx), 3);
  EXPECT_EQ(scrubber.newest_valid(), paths[2]);

  // Tear the newest file: the scrub verdict flips, newest_valid cascades.
  auto injector = robust::FaultInjector::from_string("torn-ckpt:count=0", 3);
  injector.corrupt_checkpoint_files({paths[2]}, 0);
  EXPECT_EQ(scrubber.scrub(ctx), 2);
  EXPECT_EQ(scrubber.newest_valid(), paths[1]);
  const robust::GenerationInfo* bad = scrubber.verdict(paths[2]);
  ASSERT_NE(bad, nullptr);
  EXPECT_TRUE(bad->scrubbed);
  EXPECT_FALSE(bad->valid);
  EXPECT_EQ(scrubber.verdict((dir / "unknown.bin").string()), nullptr);

  // find_rollback_target consults the ledger: the known-corrupt newest
  // generation is skipped without a load attempt, and the skip is counted.
  const robust::RollbackTarget target =
      robust::find_rollback_target(dir.string(), &scrubber);
  EXPECT_EQ(target.path, paths[1]);
  EXPECT_EQ(target.generation, 2);
  EXPECT_EQ(target.skipped_corrupt, 1);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// End-to-end acceptance matrix.

TEST(Integrity, BitflipOnOneReplicaIsHealedBitwiseWithoutRollback) {
  auto data = data::SyntheticImageDataset(pruning_data());
  const fs::path clean_dir = scratch_dir("heal_clean");
  const fs::path fault_dir = scratch_dir("heal_fault");

  graph::Network clean_net = small_net();
  core::TrainConfig clean_cfg = integrity_cfg(clean_dir.string());
  core::PruneTrainer clean(clean_net, data, clean_cfg);
  const auto clean_result = clean.run();
  EXPECT_EQ(clean.recovery_report().rollbacks, 0);
  ASSERT_NE(clean.integrity_monitor(), nullptr);
  EXPECT_GT(clean.integrity_monitor()->checks(), 0);
  EXPECT_EQ(clean.integrity_monitor()->mismatches(), 0);

  // Same run with a finite bitflip planted in replica 1's parameters after
  // step 3's update. The digest vote after step 4 (interval 4, one full
  // epoch) convicts replica 1 before the next allreduce can average the
  // corruption into the majority, heals it in place from a voted-healthy
  // replica, and the rest of the run replays bitwise-identically — no
  // rollback burned, no steps lost.
  graph::Network fault_net = small_net();
  core::TrainConfig fault_cfg = integrity_cfg(fault_dir.string());
  fault_cfg.fault_spec = "sdc-param:replica=1,step=3";
  core::PruneTrainer faulty(fault_net, data, fault_cfg);
  const auto fault_result = faulty.run();

  const auto& report = faulty.recovery_report();
  EXPECT_EQ(report.faults_injected, 1);
  EXPECT_EQ(report.rollbacks, 0);  // healed, not rolled back
  ASSERT_NE(faulty.integrity_monitor(), nullptr);
  EXPECT_EQ(faulty.integrity_monitor()->mismatches(), 1);
  EXPECT_EQ(faulty.integrity_monitor()->heals(), 1);
  EXPECT_GT(faulty.integrity_monitor()->heal_bytes_total(), 0);
  bool saw_sdc = false;
  for (const robust::HealthEvent& ev : report.events) {
    if (ev.type == robust::EventType::kSdcDetected) saw_sdc = true;
    EXPECT_NE(ev.type, robust::EventType::kSdcNoQuorum);
  }
  EXPECT_TRUE(saw_sdc);

  // Bitwise acceptance: the healed run ends exactly where the fault-free
  // run does.
  EXPECT_DOUBLE_EQ(fault_result.epochs.back().train_loss,
                   clean_result.epochs.back().train_loss);
  EXPECT_DOUBLE_EQ(fault_result.final_test_acc, clean_result.final_test_acc);
  EXPECT_EQ(fault_result.final_channels, clean_result.final_channels);
  auto pf = fault_net.params();
  auto pc = clean_net.params();
  ASSERT_EQ(pf.size(), pc.size());
  for (std::size_t i = 0; i < pf.size(); ++i) {
    ASSERT_EQ(pf[i]->value.numel(), pc[i]->value.numel());
    for (std::int64_t q = 0; q < pf[i]->value.numel(); ++q) {
      ASSERT_EQ(pf[i]->value.data()[q], pc[i]->value.data()[q]);
    }
  }
  fs::remove_all(clean_dir);
  fs::remove_all(fault_dir);
}

TEST(Integrity, TornNewestCheckpointCascadesToOlderScrubbedGeneration) {
  // The epoch-4 save (numbered + latest) is torn on disk; a NaN fault then
  // forces a rollback. The scrubber has already flagged the torn numbered
  // file, so the search cascades past both damaged paths to
  // ckpt-epoch-3.bin and the trainer surfaces a kCheckpointCascade event.
  auto data = data::SyntheticImageDataset(pruning_data());
  const fs::path dir = scratch_dir("cascade");
  graph::Network net = small_net();
  core::TrainConfig cfg = integrity_cfg(dir.string());
  cfg.replicas = 1;
  cfg.sdc_check_interval = 0;
  cfg.fault_spec = "torn-ckpt:epoch=4;nan-grad:epoch=4,step=2";
  core::PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();

  const auto& report = trainer.recovery_report();
  EXPECT_EQ(report.faults_injected, 2);
  EXPECT_EQ(report.rollbacks, 1);
  EXPECT_EQ(report.last_checkpoint, (dir / "ckpt-epoch-3.bin").string());
  const robust::HealthEvent* cascade = nullptr;
  for (const robust::HealthEvent& ev : report.events) {
    if (ev.type == robust::EventType::kCheckpointCascade) cascade = &ev;
  }
  ASSERT_NE(cascade, nullptr);
  EXPECT_GE(cascade->value, 1.0);  // at least the torn latest was skipped
  // The retry re-trains epoch 4 and re-saves its generation with the
  // fault spent, so by the end of the run the whole chain scrubs valid.
  ASSERT_NE(trainer.checkpoint_scrubber(), nullptr);
  const robust::GenerationInfo* regen = trainer.checkpoint_scrubber()->verdict(
      (dir / "ckpt-epoch-4.bin").string());
  ASSERT_NE(regen, nullptr);
  EXPECT_TRUE(regen->valid);
  EXPECT_TRUE(std::isfinite(result.epochs.back().train_loss));
  fs::remove_all(dir);
}

TEST(Integrity, NoQuorumSplitEscalatesToTheGuardian) {
  // Two replicas, one corrupted: a 1-1 digest split cannot say which side
  // is healthy, so the monitor must *not* heal; the fatal kSdcNoQuorum
  // event reaches the recovery policy, which rolls back to the last good
  // checkpoint. The single-shot fault is spent, so the retry completes.
  auto data = data::SyntheticImageDataset(pruning_data());
  const fs::path dir = scratch_dir("noquorum");
  graph::Network net = small_net();
  core::TrainConfig cfg = integrity_cfg(dir.string());
  cfg.replicas = 2;
  cfg.fault_spec = "sdc-param:replica=1,step=3";
  core::PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();

  const auto& report = trainer.recovery_report();
  EXPECT_EQ(report.faults_injected, 1);
  EXPECT_EQ(report.rollbacks, 1);  // escalated, not healed
  ASSERT_NE(trainer.integrity_monitor(), nullptr);
  EXPECT_EQ(trainer.integrity_monitor()->heals(), 0);
  const robust::HealthEvent* fatal =
      robust::HealthMonitor::first_fatal(report.events);
  ASSERT_NE(fatal, nullptr);
  EXPECT_EQ(fatal->type, robust::EventType::kSdcNoQuorum);
  EXPECT_TRUE(std::isfinite(result.epochs.back().train_loss));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pt
