// Training-guardian tests (ISSUE 2): fault-spec parsing and the injection
// matrix (every gradient/checkpoint fault mode), numerical-health
// monitoring, recovery-policy bookkeeping, and end-to-end rollback: an
// injected NaN-gradient fault mid-run rolls back to the last good
// checkpoint and the retried run reproduces the uninjected run exactly;
// corrupted checkpoints are skipped by the rollback search; an exhausted
// budget aborts with a diagnostic checkpoint.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/trainer.h"
#include "models/builders.h"
#include "nn/conv2d.h"
#include "robust/fault.h"
#include "robust/health.h"
#include "robust/recovery.h"

namespace pt {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory (pid-suffixed so the plain and .asan
/// binaries never collide under a concurrent ctest run).
fs::path scratch_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("pt_robust_" + tag + "_" + std::to_string(::getpid()));
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

/// A short PruneTrain run that actually reconfigures, with recovery armed:
/// per-epoch checkpoints and a rollback budget of 2.
core::TrainConfig guardian_cfg(const std::string& dir) {
  core::TrainConfig cfg;
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.epochs = 6;
  cfg.batch_size = 64;
  cfg.base_lr = 0.1f;
  cfg.weight_decay = 1e-4f;
  cfg.lr_milestones = {3, 5};
  cfg.strategy_params["ratio"] = "0.3";
  // Proxy time compression; prunes by epoch 2.
  cfg.strategy_params["boost"] = "2000";
  cfg.reconfig_interval = 2;
  cfg.eval_interval = 2;
  cfg.checkpoint_dir = dir;
  cfg.recovery.max_rollbacks = 2;
  return cfg;
}

graph::Network small_net(std::uint64_t seed = 21) {
  models::ModelConfig mc = pruning_model();
  mc.seed = seed;
  return models::build_resnet_basic(8, mc);
}

// ---------------------------------------------------------------------------
// Fault-spec grammar.

TEST(FaultSpec, ParsesMultiClauseSpecs) {
  const auto specs = robust::parse_fault_specs(
      "nan-grad:epoch=3,step=1;drop-replica:replica=2,count=0;"
      "delay-replica:delay=2.5;scale-grad:scale=100;truncate-ckpt");
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0].kind, robust::FaultSpec::Kind::kNanGrad);
  EXPECT_EQ(specs[0].epoch, 3);
  EXPECT_EQ(specs[0].step, 1);
  EXPECT_EQ(specs[0].count, 1);  // default: fire once
  EXPECT_EQ(specs[1].kind, robust::FaultSpec::Kind::kDropReplica);
  EXPECT_EQ(specs[1].replica, 2);
  EXPECT_EQ(specs[1].count, 0);  // unlimited
  EXPECT_EQ(specs[2].kind, robust::FaultSpec::Kind::kDelayReplica);
  EXPECT_DOUBLE_EQ(specs[2].delay_seconds, 2.5);
  EXPECT_DOUBLE_EQ(specs[3].scale, 100.0);
  EXPECT_EQ(specs[4].kind, robust::FaultSpec::Kind::kTruncateCkpt);
  EXPECT_TRUE(robust::parse_fault_specs("").empty());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(robust::parse_fault_specs("meteor-strike"),
               std::invalid_argument);
  EXPECT_THROW(robust::parse_fault_specs("nan-grad:when=now"),
               std::invalid_argument);
  EXPECT_THROW(robust::parse_fault_specs("nan-grad:epoch"),
               std::invalid_argument);
  EXPECT_THROW(robust::parse_fault_specs("nan-grad:epoch=soon"),
               std::invalid_argument);
  EXPECT_THROW(robust::parse_fault_specs("nan-grad:count=-1"),
               std::invalid_argument);
  EXPECT_THROW(robust::parse_fault_specs("nan-grad;;drop-replica"),
               std::invalid_argument);
}

TEST(FaultSpec, RejectsTrailingTextFractionsAndRepeatedKeys) {
  // Each value must be one whole number of its key's type, and each key
  // is set once; the error names the clause.
  for (const std::string clause :
       {"nan-grad:epoch=3x", "flaky-replica:prob=0.5abc", "nan-grad:step=1.9",
        "kill-replica:replica=1.0", "nan-grad:epoch=1,epoch=4",
        "scale-grad:scale=2,scale=2"}) {
    SCOPED_TRACE(clause);
    try {
      robust::parse_fault_specs("truncate-ckpt;" + clause);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + clause + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // Real-valued keys still parse as doubles, so fault draws do not move.
  const auto specs = robust::parse_fault_specs(
      "flaky-replica:prob=0.1;delay-replica:delay=0.3;scale-grad:scale=1e-3");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].prob, 0.1);
  EXPECT_EQ(specs[1].delay_seconds, 0.3);
  EXPECT_EQ(specs[2].scale, 1e-3);
}

TEST(FaultSpec, ParsesElasticMembershipKinds) {
  const auto specs = robust::parse_fault_specs(
      "kill-replica:replica=2,step=50;flaky-replica:prob=0.25,count=0;"
      "rejoin-replica:replica=2,step=80");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].kind, robust::FaultSpec::Kind::kKillReplica);
  EXPECT_EQ(specs[0].replica, 2);
  EXPECT_EQ(specs[0].step, 50);
  EXPECT_EQ(specs[1].kind, robust::FaultSpec::Kind::kFlakyReplica);
  EXPECT_DOUBLE_EQ(specs[1].prob, 0.25);
  EXPECT_EQ(specs[1].count, 0);
  EXPECT_EQ(specs[2].kind, robust::FaultSpec::Kind::kRejoinReplica);

  // prob is a probability, and only meaningful as one.
  EXPECT_THROW(robust::parse_fault_specs("flaky-replica:prob=1.5"),
               std::invalid_argument);
  EXPECT_THROW(robust::parse_fault_specs("flaky-replica:prob=-0.1"),
               std::invalid_argument);
}

TEST(FaultSpec, ParsesServingResilienceKinds) {
  const auto specs = robust::parse_fault_specs(
      "poison-ckpt:epoch=2;poison-ckpt:epoch=3,scale=100;"
      "slow-model:epoch=2,scale=16,count=0;flaky-output:epoch=3,count=2");
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].kind, robust::FaultSpec::Kind::kPoisonCkpt);
  EXPECT_EQ(specs[0].epoch, 2);
  EXPECT_FALSE(specs[0].scale_set);  // NaN mode
  EXPECT_EQ(specs[1].kind, robust::FaultSpec::Kind::kPoisonCkpt);
  EXPECT_TRUE(specs[1].scale_set);   // finite-garbage mode
  EXPECT_DOUBLE_EQ(specs[1].scale, 100.0);
  EXPECT_EQ(specs[2].kind, robust::FaultSpec::Kind::kSlowModel);
  EXPECT_DOUBLE_EQ(specs[2].scale, 16.0);
  EXPECT_EQ(specs[2].count, 0);
  EXPECT_EQ(specs[3].kind, robust::FaultSpec::Kind::kFlakyOutput);
  EXPECT_EQ(specs[3].epoch, 3);
  EXPECT_EQ(specs[3].count, 2);

  // slow-model's scale is an inflation factor; shrinking is not a fault.
  EXPECT_THROW(robust::parse_fault_specs("slow-model:scale=0.5"),
               std::invalid_argument);
}

TEST(FaultSpec, KillAndFlakyQueriesAreDeterministic) {
  // Kill fires exactly at its (replica, step) coordinate.
  auto kill = robust::FaultInjector::from_string(
      "kill-replica:replica=1,step=3", 11);
  EXPECT_FALSE(kill.kill_replica(1, 2));
  EXPECT_FALSE(kill.kill_replica(0, 3));
  EXPECT_TRUE(kill.kill_replica(1, 3));
  EXPECT_EQ(kill.total_fires(), 1);

  // Flaky draws the same Bernoulli stream for the same (spec, seed) and
  // query sequence — two injectors agree query for query.
  auto a = robust::FaultInjector::from_string("flaky-replica:prob=0.5,count=0",
                                              21);
  auto b = robust::FaultInjector::from_string("flaky-replica:prob=0.5,count=0",
                                              21);
  int deaths = 0;
  for (std::int64_t step = 0; step < 64; ++step) {
    for (int r = 0; r < 4; ++r) {
      const bool da = a.flaky_replica(r, step);
      ASSERT_EQ(da, b.flaky_replica(r, step));
      if (da) ++deaths;
    }
  }
  EXPECT_GT(deaths, 0);  // prob=0.5 over 256 draws cannot stay silent

  // Rejoin mirrors kill: exact coordinate, once.
  auto rejoin = robust::FaultInjector::from_string(
      "rejoin-replica:replica=1,step=9", 11);
  EXPECT_FALSE(rejoin.rejoin_replica(1, 8));
  EXPECT_TRUE(rejoin.rejoin_replica(1, 9));
}

std::vector<std::string> fault_keys() {
  std::vector<std::string> keys;
  std::stringstream in(robust::kFaultKeys);
  for (std::string key; std::getline(in, key, ',');) keys.push_back(key);
  return keys;
}

TEST(FaultSpec, HelpTextDocumentsEveryKindAndKey) {
  const std::string help = robust::fault_spec_help();
  EXPECT_EQ(robust::fault_kinds().size(),
            static_cast<std::size_t>(robust::FaultSpec::Kind::kFlakyOutput) + 1);
  for (const robust::FaultKindInfo& row : robust::fault_kinds()) {
    EXPECT_EQ(robust::to_string(row.kind), row.name);
    EXPECT_EQ(&robust::fault_kind(row.kind), &row);
    // The kind's table line: its name, its semantics, then its keys.
    const std::string help_text = row.help;
    const std::size_t at = help.find("\n  " + std::string(row.name) + " ");
    ASSERT_NE(at, std::string::npos) << row.name;
    const std::size_t end = help.find('\n', at + 1);
    const std::string line = help.substr(at + 1, end - at - 1);
    EXPECT_NE(line.find(help_text.substr(0, help_text.find('\n'))),
              std::string::npos)
        << line;
    EXPECT_TRUE(line.ends_with(std::string("  ") + row.keys)) << line;
  }
  for (const std::string& key : fault_keys()) {
    EXPECT_NE(help.find("    " + key + "=<"), std::string::npos) << key;
  }
}

TEST(FaultSpec, EveryKindRejectsKeysItDoesNotRead) {
  // A key the kind's consumer never reads would be parsed and silently
  // dropped; the parser names the clause and the key instead. Every key
  // the kind does read parses.
  for (const robust::FaultKindInfo& row : robust::fault_kinds()) {
    for (const std::string& key : fault_keys()) {
      const std::string clause = std::string(row.name) + ":" + key + "=1";
      SCOPED_TRACE(clause);
      if (row.reads(key)) {
        EXPECT_NO_THROW(robust::parse_fault_specs(clause));
        continue;
      }
      try {
        robust::parse_fault_specs("nan-grad:step=2;" + clause);
        ADD_FAILURE() << "accepted a key the kind does not read";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'" + clause + "'"), std::string::npos) << what;
        EXPECT_NE(what.find(" " + key + "="), std::string::npos) << what;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FaultInjector matrix: every gradient mode does what it advertises, and
// injection is deterministic in (spec, seed).

std::int64_t count_nonfinite_grads(graph::Network& net) {
  std::int64_t bad = 0;
  for (nn::Param* p : net.params()) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      if (!std::isfinite(p->grad.data()[i])) ++bad;
    }
  }
  return bad;
}

TEST(FaultInjector, NanGradPoisonsExactlyOneElement) {
  graph::Network net = small_net();
  net.zero_grad();
  auto injector = robust::FaultInjector::from_string("nan-grad:epoch=2", 9);
  EXPECT_TRUE(injector.armed());
  EXPECT_FALSE(injector.corrupt_gradients(net, {1, 0, 0}));  // wrong epoch
  EXPECT_EQ(count_nonfinite_grads(net), 0);
  EXPECT_TRUE(injector.corrupt_gradients(net, {2, 0, 0}));
  EXPECT_EQ(count_nonfinite_grads(net), 1);
  EXPECT_FALSE(injector.corrupt_gradients(net, {2, 1, 1}));  // count=1 spent
  EXPECT_EQ(injector.total_fires(), 1);
}

TEST(FaultInjector, BitflipChangesExactlyOneElement) {
  graph::Network a = small_net();
  graph::Network b = small_net();
  a.zero_grad();
  b.zero_grad();
  auto injector = robust::FaultInjector::from_string("bitflip-grad", 11);
  EXPECT_TRUE(injector.corrupt_gradients(a, {0, 0, 0}));
  auto pa = a.params();
  auto pb = b.params();
  std::int64_t diffs = 0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t q = 0; q < pa[i]->grad.numel(); ++q) {
      std::uint32_t xa, xb;
      std::memcpy(&xa, pa[i]->grad.data() + q, 4);
      std::memcpy(&xb, pb[i]->grad.data() + q, 4);
      if (xa != xb) ++diffs;
    }
  }
  EXPECT_EQ(diffs, 1);
}

TEST(FaultInjector, ScaleGradMultipliesEveryGradient) {
  graph::Network net = small_net();
  for (nn::Param* p : net.params()) p->grad.fill(2.f);
  auto injector = robust::FaultInjector::from_string("scale-grad:scale=10", 3);
  EXPECT_TRUE(injector.corrupt_gradients(net, {0, 0, 0}));
  for (nn::Param* p : net.params()) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      ASSERT_FLOAT_EQ(p->grad.data()[i], 20.f);
    }
  }
}

TEST(FaultInjector, DeterministicGivenSpecAndSeed) {
  graph::Network a = small_net();
  graph::Network b = small_net();
  a.zero_grad();
  b.zero_grad();
  auto ia = robust::FaultInjector::from_string("bitflip-grad:count=0", 77);
  auto ib = robust::FaultInjector::from_string("bitflip-grad:count=0", 77);
  for (int step = 0; step < 4; ++step) {
    ia.corrupt_gradients(a, {0, step, step});
    ib.corrupt_gradients(b, {0, step, step});
  }
  auto pa = a.params();
  auto pb = b.params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t q = 0; q < pa[i]->grad.numel(); ++q) {
      std::uint32_t xa, xb;
      std::memcpy(&xa, pa[i]->grad.data() + q, 4);
      std::memcpy(&xb, pb[i]->grad.data() + q, 4);
      ASSERT_EQ(xa, xb);
    }
  }
}

TEST(FaultInjector, DisarmedInjectorIsANoOp) {
  robust::FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  graph::Network net = small_net();
  EXPECT_FALSE(injector.corrupt_gradients(net, {0, 0, 0}));
  EXPECT_FALSE(injector.drop_replica(0, 0));
  EXPECT_DOUBLE_EQ(injector.replica_delay(0, 0), 0.0);
  EXPECT_EQ(injector.total_fires(), 0);
}

TEST(FaultInjector, CheckpointFaultsBreakTheFileLoad) {
  const fs::path dir = scratch_dir("ckptfault");
  graph::Network net = small_net();
  for (const std::string mode : {"truncate-ckpt", "corrupt-ckpt"}) {
    const std::string path = (dir / (mode + ".bin")).string();
    ckpt::Checkpoint::capture(net).save(path);
    ASSERT_NO_THROW(ckpt::Checkpoint::load(path));
    auto injector = robust::FaultInjector::from_string(mode, 13);
    EXPECT_TRUE(injector.corrupt_checkpoint_files({path}, 0));
    EXPECT_THROW(ckpt::Checkpoint::load(path), std::exception);
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// HealthMonitor.

TEST(HealthMonitor, CleanEpochRaisesNothing) {
  robust::HealthMonitor mon;
  graph::Network net = small_net();
  EXPECT_TRUE(mon.check_epoch(0, 1.5, net).empty());
  EXPECT_TRUE(mon.log().empty());
}

TEST(HealthMonitor, NonFiniteLossIsFatal) {
  robust::HealthMonitor mon;
  graph::Network net = small_net();
  const auto events =
      mon.check_epoch(3, std::numeric_limits<double>::quiet_NaN(), net);
  ASSERT_FALSE(events.empty());
  const robust::HealthEvent* fatal = robust::HealthMonitor::first_fatal(events);
  ASSERT_NE(fatal, nullptr);
  EXPECT_EQ(fatal->type, robust::EventType::kNonFiniteLoss);
  EXPECT_EQ(fatal->epoch, 3);
}

TEST(HealthMonitor, LossSpikeArmsAfterWarmup) {
  robust::HealthConfig cfg;
  cfg.loss_spike_factor = 10.0;
  cfg.spike_warmup = 3;
  robust::HealthMonitor mon(cfg);
  graph::Network net = small_net();
  // A huge "loss" during warmup is volatility, not divergence.
  EXPECT_TRUE(mon.check_epoch(0, 100.0, net).empty());
  EXPECT_TRUE(mon.check_epoch(1, 2.0, net).empty());
  EXPECT_TRUE(mon.check_epoch(2, 2.0, net).empty());
  EXPECT_TRUE(mon.check_epoch(3, 2.1, net).empty());
  // Median of the window is ~2: 50 trips the 10x detector.
  const auto events = mon.check_epoch(4, 50.0, net);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, robust::EventType::kLossSpike);
  EXPECT_EQ(events[0].severity, robust::Severity::kFatal);
  // A spike is not recorded as healthy; the window recovers afterwards.
  EXPECT_TRUE(mon.check_epoch(5, 2.0, net).empty());
  mon.reset_window();
  EXPECT_TRUE(mon.check_epoch(6, 100.0, net).empty());  // warmup re-runs
}

TEST(HealthMonitor, DetectsNonFiniteTensors) {
  graph::Network net = small_net();
  {  // gradient
    robust::HealthMonitor mon;
    net.zero_grad();
    net.params()[0]->grad.data()[0] = std::numeric_limits<float>::infinity();
    const auto events = mon.check_epoch(0, 1.0, net);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type, robust::EventType::kNonFiniteGradient);
    EXPECT_EQ(events[0].severity, robust::Severity::kFatal);
  }
  net.zero_grad();
  {  // parameter
    robust::HealthMonitor mon;
    float* w = net.params()[0]->value.data();
    const float saved = w[0];
    w[0] = std::numeric_limits<float>::quiet_NaN();
    const auto events = mon.check_epoch(0, 1.0, net);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type, robust::EventType::kNonFiniteParam);
    w[0] = saved;
  }
  {  // disabled scan
    robust::HealthConfig cfg;
    cfg.check_gradients = false;
    cfg.check_bn_stats = false;
    robust::HealthMonitor mon(cfg);
    net.params()[0]->grad.data()[0] = std::numeric_limits<float>::infinity();
    EXPECT_TRUE(mon.check_epoch(0, 1.0, net).empty());
  }
}

TEST(HealthMonitor, PruningCollapseIsAWarning) {
  graph::Network net = small_net();
  // Zero every conv weight: all channels fall below threshold everywhere.
  for (int id : net.nodes_of_type<nn::Conv2d>()) {
    net.layer_as<nn::Conv2d>(id).weight().value.fill(0.f);
  }
  robust::HealthMonitor mon;
  const auto events = mon.check_prune(2, net, 1e-4f);
  ASSERT_FALSE(events.empty());
  for (const auto& ev : events) {
    EXPECT_EQ(ev.type, robust::EventType::kPruningCollapse);
    EXPECT_EQ(ev.severity, robust::Severity::kWarning);
  }
  EXPECT_EQ(robust::HealthMonitor::first_fatal(events), nullptr);
}

TEST(HealthConfig, ValidatesFields) {
  robust::HealthConfig cfg;
  cfg.loss_spike_factor = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.loss_window = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.spike_warmup = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(robust::HealthConfig{}.validate());
}

// ---------------------------------------------------------------------------
// RecoveryPolicy bookkeeping.

TEST(RecoveryPolicy, CutsLrAndBacksOffExponentially) {
  robust::RecoveryConfig cfg;
  cfg.max_rollbacks = 3;
  cfg.lr_cut = 0.5f;
  cfg.backoff_base = 4.0;
  cfg.backoff_cap = 5.0;
  robust::RecoveryPolicy policy(cfg);
  robust::HealthEvent ev;

  auto d1 = policy.on_fatal(ev);
  EXPECT_EQ(d1.action, robust::RecoveryPolicy::Decision::Action::kRollback);
  EXPECT_FLOAT_EQ(d1.lr_scale, 0.5f);
  EXPECT_DOUBLE_EQ(d1.backoff_seconds, 1.0);  // 4^0
  EXPECT_EQ(d1.attempt, 1);

  auto d2 = policy.on_fatal(ev);
  EXPECT_FLOAT_EQ(d2.lr_scale, 0.25f);
  EXPECT_DOUBLE_EQ(d2.backoff_seconds, 4.0);  // 4^1

  auto d3 = policy.on_fatal(ev);
  EXPECT_FLOAT_EQ(d3.lr_scale, 0.125f);
  EXPECT_DOUBLE_EQ(d3.backoff_seconds, 5.0);  // 4^2 capped at 5

  auto d4 = policy.on_fatal(ev);
  EXPECT_EQ(d4.action, robust::RecoveryPolicy::Decision::Action::kAbort);
  EXPECT_EQ(policy.rollbacks(), 3);
}

TEST(RecoveryConfig, ValidatesFields) {
  robust::RecoveryConfig cfg;
  cfg.lr_cut = 0.f;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.lr_cut = 1.5f;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.backoff_base = 0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.max_rollbacks = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(RecoveryReport, SerializationRoundTrips) {
  robust::RecoveryReport report;
  report.rollbacks = 2;
  report.faults_injected = 5;
  report.backoff_seconds = 3.5;
  report.aborted = true;
  report.last_checkpoint = "/tmp/ckpt-epoch-4.bin";
  robust::HealthEvent ev;
  ev.type = robust::EventType::kLossSpike;
  ev.severity = robust::Severity::kFatal;
  ev.epoch = 4;
  ev.value = 123.0;
  ev.detail = "loss 123 > 10x median 2";
  report.events.push_back(ev);

  const auto round = robust::deserialize_report(robust::serialize_report(report));
  EXPECT_EQ(round.rollbacks, 2);
  EXPECT_EQ(round.faults_injected, 5);
  EXPECT_DOUBLE_EQ(round.backoff_seconds, 3.5);
  EXPECT_TRUE(round.aborted);
  EXPECT_EQ(round.last_checkpoint, report.last_checkpoint);
  ASSERT_EQ(round.events.size(), 1u);
  EXPECT_EQ(round.events[0].type, robust::EventType::kLossSpike);
  EXPECT_EQ(round.events[0].epoch, 4);
  EXPECT_EQ(round.events[0].detail, ev.detail);
}

TEST(FindLastGoodCheckpoint, SkipsCorruptedFilesAndFallsBack) {
  const fs::path dir = scratch_dir("lastgood");
  const auto last_good = [](const std::string& d) {
    return robust::find_rollback_target(d, nullptr).path;
  };
  EXPECT_EQ(last_good(dir.string()), "");
  EXPECT_EQ(last_good((dir / "absent").string()), "");

  graph::Network net = small_net();
  ckpt::Checkpoint ck = ckpt::Checkpoint::capture(net);
  ck.save((dir / "ckpt-epoch-2.bin").string());
  ck.save((dir / "ckpt-epoch-4.bin").string());
  ck.save((dir / "ckpt-latest.bin").string());
  EXPECT_EQ(last_good(dir.string()), (dir / "ckpt-latest.bin").string());

  // Corrupt latest: fall back to the highest numbered checkpoint.
  auto injector = robust::FaultInjector::from_string("corrupt-ckpt:count=0", 1);
  injector.corrupt_checkpoint_files({(dir / "ckpt-latest.bin").string()}, 0);
  EXPECT_EQ(last_good(dir.string()), (dir / "ckpt-epoch-4.bin").string());

  // Corrupt that too: fall back further.
  injector.corrupt_checkpoint_files({(dir / "ckpt-epoch-4.bin").string()}, 0);
  EXPECT_EQ(last_good(dir.string()), (dir / "ckpt-epoch-2.bin").string());

  injector.corrupt_checkpoint_files({(dir / "ckpt-epoch-2.bin").string()}, 0);
  EXPECT_EQ(last_good(dir.string()), "");
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// TrainConfig validation of the guardian fields.

TEST(GuardianConfig, ValidatesRobustnessFields) {
  core::TrainConfig cfg;
  cfg.recovery.max_rollbacks = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.recovery.max_rollbacks = 2;  // rollback without a checkpoint_dir
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.checkpoint_dir = "/tmp/somewhere";
  EXPECT_NO_THROW(cfg.validate());
  cfg.recovery.lr_cut = 0.f;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.recovery.lr_cut = 1.5f;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.recovery.backoff_base = 0.9;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.recovery.backoff_cap = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.prune_min_channels = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.fault_spec = "meteor-strike";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.fault_spec = "nan-grad:epoch=3";
  EXPECT_NO_THROW(cfg.validate());
  cfg = {};
  cfg.health.loss_window = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// No silent accepts: in every run shape, each fault kind is either rejected
// by the PruneTrainer constructor (naming the clause) or fires in a short
// run.

TEST(TrainConfigFaults, EveryKindIsRejectedOrFires) {
  struct Row {
    std::string spec;
    bool single;       // has a consumer at replicas=1
    bool cluster;      // has a consumer at replicas=2
    bool checkpoints;  // needs checkpoint_dir
    bool allow_rejoin = true;
    std::int64_t suspect_threshold = 1;
    std::int64_t epochs = 1;
  };
  const std::vector<Row> rows = {
      {"nan-grad:step=1", true, true, false},
      {"nan-grad:epoch=0,step=1", true, true, false},
      {"bitflip-grad:step=1", true, true, false},
      {"bitflip-grad:epoch=0,step=1", true, true, false},
      {"scale-grad:step=1", true, true, false},
      {"scale-grad:epoch=0,step=1", true, true, false},
      {"drop-replica:step=1", false, true, false},
      {"delay-replica:step=1", false, true, false},
      {"kill-replica:replica=1,step=1", false, true, false},
      {"flaky-replica:replica=1,prob=1", false, true, false},
      {"kill-replica:replica=1,step=1;rejoin-replica:replica=1,step=3", false,
       true, false},
      // A rejoin needs rejoins allowed and a replica some clause can kill
      // before it.
      {"rejoin-replica:replica=1,step=3;kill-replica:replica=1,step=1", false,
       false, false, /*allow_rejoin=*/false},
      {"rejoin-replica:replica=1,step=3", false, false, false},
      {"rejoin-replica:replica=1,step=3;kill-replica:replica=1,step=3", false,
       false, false},
      {"rejoin-replica:step=3;kill-replica:replica=1,step=1", false, true,
       false},
      // A killed replica is DEAD only after suspect_threshold missed acks,
      // and only a DEAD replica rejoins.
      {"rejoin-replica:replica=1,step=2;kill-replica:replica=1,step=1", false,
       false, false, true, /*suspect_threshold=*/3},
      {"rejoin-replica:replica=1,step=2;kill-replica:replica=1,step=1", false,
       true, false, true, /*suspect_threshold=*/1},
      {"truncate-ckpt", true, true, true},
      {"corrupt-ckpt", true, true, true},
      {"torn-ckpt", true, true, true},
      {"sdc-param:step=1", true, true, false},
      {"sdc-momentum:step=1", true, true, false},
      // Keys that no consumer matches in a mode are rejected there too.
      {"drop-replica:epoch=0,step=1", false, false, false},
      {"delay-replica:replica=2,step=1", false, false, false},
      {"flaky-replica:replica=2,prob=1", false, false, false},
      {"nan-grad:replica=1,step=1", false, true, false},
      {"corrupt-ckpt:step=1", false, false, true},
      {"sdc-param:epoch=0,step=1", true, true, false},
      {"sdc-momentum:replica=0,step=1", false, true, false},
      // An epoch= past the end of the 1-epoch run: gradient epochs are
      // 0-based, checkpoints are matched after the epoch counter advances.
      {"nan-grad:epoch=1,step=1", false, false, false},
      {"corrupt-ckpt:epoch=1", true, true, true},
      {"truncate-ckpt:epoch=2", false, false, true},
      {"poison-ckpt", false, false, false},
      {"slow-model", false, false, false},
      {"flaky-output", false, false, false},
      // A step= the run never reaches: the 1-epoch run has 4 steps
      // (0-based), and with epoch= the step counts within that epoch.
      {"nan-grad:step=3", true, true, false},
      {"nan-grad:step=4", false, false, false},
      {"sdc-param:epoch=0,step=3", true, true, false},
      {"sdc-param:epoch=0,step=4", false, false, false},
      {"nan-grad:epoch=0,step=4", false, false, false, true, 1, /*epochs=*/2},
      {"nan-grad:step=4", true, true, false, true, 1, /*epochs=*/2},
      {"kill-replica:replica=1,step=3", false, true, false},
      {"kill-replica:replica=1,step=4", false, false, false},
      {"delay-replica:step=4", false, false, false},
      {"rejoin-replica:replica=1,step=4;kill-replica:replica=1,step=1", false,
       false, false},
  };
  // Some rows are rejected by the parser itself, so their kinds are read
  // off the clause text.
  const auto& kinds = robust::fault_kinds();
  std::vector<bool> covered(kinds.size());
  for (const Row& row : rows) {
    const std::string text = ";" + row.spec + ";";
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const std::string clause = std::string(";") + kinds[k].name;
      if (text.find(clause + ":") != std::string::npos ||
          text.find(clause + ";") != std::string::npos) {
        covered[k] = true;
      }
    }
  }
  for (std::size_t k = 0; k < covered.size(); ++k) {
    EXPECT_TRUE(covered[k]) << kinds[k].name << " missing from the rows";
  }

  data::SyntheticSpec spec = pruning_data();
  spec.train_samples = 64;  // 4 steps of 16
  spec.test_samples = 32;
  auto data = data::SyntheticImageDataset(spec);
  for (const Row& row : rows) {
    const std::int64_t clauses =
        1 + std::count(row.spec.begin(), row.spec.end(), ';');
    const std::string first_clause = row.spec.substr(0, row.spec.find(';'));
    for (const std::int64_t replicas : {1, 2}) {
      for (const bool checkpoints : {false, true}) {
        const std::string where =
            row.spec + " replicas=" + std::to_string(replicas) +
            (checkpoints ? " with" : " without") + " checkpoint_dir";
        SCOPED_TRACE(where);
        core::TrainConfig cfg;
        cfg.policy = core::PrunePolicy::kDense;
        cfg.epochs = row.epochs;
        cfg.batch_size = 16;
        cfg.replicas = replicas;
        cfg.membership.suspect_threshold = row.suspect_threshold;
        cfg.fault_spec = row.spec;
        cfg.membership.allow_rejoin = row.allow_rejoin;
        // A fresh directory per run, so no run sees another's checkpoints.
        if (checkpoints) {
          cfg.checkpoint_dir = scratch_dir("every_kind").string();
        }
        const bool consumed = (replicas == 1 ? row.single : row.cluster) &&
                              (checkpoints || !row.checkpoints);
        if (!consumed) {
          try {
            graph::Network net = small_net();
            core::PruneTrainer trainer(net, data, cfg);
            ADD_FAILURE() << "accepted a clause that never fires";
          } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("'" + first_clause + "'"),
                      std::string::npos)
                << e.what();
          }
          continue;
        }
        // A throw would unwind the trace with it: name the row here.
        try {
          graph::Network net = small_net();
          core::PruneTrainer trainer(net, data, cfg);
          trainer.run();
          EXPECT_GE(trainer.recovery_report().faults_injected, clauses);
        } catch (const std::exception& e) {
          ADD_FAILURE() << where << " threw: " << e.what();
        }
      }
    }
  }
  fs::remove_all(scratch_dir("every_kind"));
}

// Step keys are bounded by the dataset: an epoch has ceil(train / batch)
// steps, and the run that many per epoch.
TEST(TrainConfigFaults, StepKeysPastTheRunAreRejected) {
  const auto rejects = [](const std::string& spec) {
    try {
      robust::validate_fault_steps(spec, /*steps_per_epoch=*/3,
                                   /*run_steps=*/6);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + spec + "'"),
                std::string::npos)
          << e.what();
      return true;
    }
    return false;
  };
  EXPECT_FALSE(rejects("nan-grad:step=5"));
  EXPECT_TRUE(rejects("nan-grad:step=6"));
  EXPECT_FALSE(rejects("sdc-momentum:epoch=1,step=2"));
  EXPECT_TRUE(rejects("sdc-momentum:epoch=1,step=3"));
  EXPECT_FALSE(rejects("kill-replica:step=5"));
  EXPECT_TRUE(rejects("flaky-replica:step=6"));
  EXPECT_TRUE(rejects("drop-replica:step=6"));
  // Checkpoint and serve kinds read no step the cluster counts.
  EXPECT_FALSE(rejects("corrupt-ckpt:epoch=9"));
  EXPECT_FALSE(rejects("slow-model:step=99"));

  // 40 samples at batch 16 is 3 steps, the last one short.
  data::SyntheticSpec spec = pruning_data();
  spec.train_samples = 40;
  spec.test_samples = 32;
  auto data = data::SyntheticImageDataset(spec);
  core::TrainConfig cfg;
  cfg.policy = core::PrunePolicy::kDense;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  cfg.fault_spec = "nan-grad:step=2";
  graph::Network net = small_net();
  EXPECT_NO_THROW(core::PruneTrainer trainer(net, data, cfg));
  cfg.fault_spec = "nan-grad:step=3";
  EXPECT_THROW(core::PruneTrainer trainer(net, data, cfg),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end guardian runs (the ISSUE 2 acceptance scenario).

TEST(Guardian, NanFaultRollsBackAndReproducesCleanRun) {
  auto data = data::SyntheticImageDataset(pruning_data());
  const fs::path clean_dir = scratch_dir("clean");
  const fs::path fault_dir = scratch_dir("fault");

  graph::Network clean_net = small_net();
  core::TrainConfig clean_cfg = guardian_cfg(clean_dir.string());
  core::PruneTrainer clean(clean_net, data, clean_cfg);
  const auto clean_result = clean.run();
  EXPECT_EQ(clean.recovery_report().rollbacks, 0);
  EXPECT_EQ(clean.recovery_report().faults_injected, 0);

  // Same run with a NaN gradient injected mid-epoch-3. The guardian must
  // detect it, roll back to the end-of-epoch checkpoint, and — with
  // lr_cut=1 and the single-shot fault spent — replay the remaining epochs
  // bitwise-identically to the uninjected run.
  graph::Network fault_net = small_net();
  core::TrainConfig fault_cfg = guardian_cfg(fault_dir.string());
  fault_cfg.fault_spec = "nan-grad:epoch=3,step=1";
  fault_cfg.recovery.lr_cut = 1.0f;
  core::PruneTrainer faulty(fault_net, data, fault_cfg);
  const auto fault_result = faulty.run();

  const auto& report = faulty.recovery_report();
  EXPECT_EQ(report.faults_injected, 1);
  EXPECT_EQ(report.rollbacks, 1);
  EXPECT_FALSE(report.aborted);
  ASSERT_FALSE(report.events.empty());
  EXPECT_EQ(robust::HealthMonitor::first_fatal(report.events)->epoch, 3);

  EXPECT_TRUE(std::isfinite(fault_result.epochs.back().train_loss));
  EXPECT_DOUBLE_EQ(fault_result.epochs.back().train_loss,
                   clean_result.epochs.back().train_loss);
  EXPECT_DOUBLE_EQ(fault_result.final_test_acc, clean_result.final_test_acc);
  EXPECT_EQ(fault_result.final_channels, clean_result.final_channels);
  EXPECT_EQ(fault_result.epochs.size(), clean_result.epochs.size());
  EXPECT_EQ(fault_net.num_params(), clean_net.num_params());
  auto pf = fault_net.params();
  auto pc = clean_net.params();
  ASSERT_EQ(pf.size(), pc.size());
  for (std::size_t i = 0; i < pf.size(); ++i) {
    for (std::int64_t q = 0; q < pf[i]->value.numel(); ++q) {
      ASSERT_EQ(pf[i]->value.data()[q], pc[i]->value.data()[q]);
    }
  }
  fs::remove_all(clean_dir);
  fs::remove_all(fault_dir);
}

TEST(Guardian, RollbackSkipsACorruptedCheckpoint) {
  // The checkpoint written after epoch 4 (numbered + latest) is corrupted
  // on disk; a NaN fault then strikes epoch 4's training... the rollback
  // search must skip the damaged files and land on ckpt-epoch-3.bin.
  auto data = data::SyntheticImageDataset(pruning_data());
  const fs::path dir = scratch_dir("fallback");
  graph::Network net = small_net();
  core::TrainConfig cfg = guardian_cfg(dir.string());
  cfg.fault_spec = "corrupt-ckpt:epoch=4;nan-grad:epoch=4,step=2";
  core::PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();

  const auto& report = trainer.recovery_report();
  EXPECT_EQ(report.faults_injected, 2);
  EXPECT_EQ(report.rollbacks, 1);
  EXPECT_EQ(report.last_checkpoint, (dir / "ckpt-epoch-3.bin").string());
  EXPECT_TRUE(std::isfinite(result.epochs.back().train_loss));
  EXPECT_TRUE(std::isfinite(result.final_test_acc));
  fs::remove_all(dir);
}

TEST(Guardian, ExhaustedBudgetAbortsWithDiagnosticCheckpoint) {
  auto data = data::SyntheticImageDataset(pruning_data());
  const fs::path dir = scratch_dir("abort");
  graph::Network net = small_net();
  core::TrainConfig cfg = guardian_cfg(dir.string());
  cfg.epochs = 3;
  cfg.recovery.max_rollbacks = 1;
  cfg.fault_spec = "nan-grad:count=0";  // refaults on every retry
  core::PruneTrainer trainer(net, data, cfg);
  try {
    trainer.run();
    FAIL() << "expected robust::TrainingAborted";
  } catch (const robust::TrainingAborted& e) {
    EXPECT_TRUE(e.report().aborted);
    EXPECT_EQ(e.report().rollbacks, 1);
    EXPECT_GE(e.report().faults_injected, 2);
  }

  // The diagnostic checkpoint must exist, load, and carry the report.
  ckpt::Checkpoint ck =
      ckpt::Checkpoint::load((dir / "ckpt-diagnostic.bin").string());
  const std::vector<std::uint8_t>* section = ck.section("guardian");
  ASSERT_NE(section, nullptr);
  const auto report = robust::deserialize_report(*section);
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.rollbacks, 1);
  ASSERT_FALSE(report.events.empty());
  fs::remove_all(dir);
}

TEST(Guardian, RecoveryDisabledObservesButDoesNotInterrupt) {
  // Historical behavior when max_rollbacks == 0: the fatal event is logged
  // and recorded, the run is left to its fate.
  auto data = data::SyntheticImageDataset(pruning_data());
  graph::Network net = small_net();
  core::TrainConfig cfg;
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.epochs = 3;
  cfg.batch_size = 64;
  cfg.base_lr = 0.1f;
  cfg.strategy_params["ratio"] = "0.3";
  cfg.fault_spec = "nan-grad:epoch=1,step=0";
  core::PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();
  EXPECT_EQ(result.epochs.size(), 3u);
  EXPECT_EQ(trainer.recovery_report().rollbacks, 0);
  EXPECT_EQ(trainer.recovery_report().faults_injected, 1);
  // The poison is detected as a fatal event every epoch from the injection
  // on (the loss itself may stay finite — ReLU squashes NaN activations to
  // zero — which is exactly why the state scan exists).
  const robust::HealthEvent* fatal =
      robust::HealthMonitor::first_fatal(trainer.recovery_report().events);
  ASSERT_NE(fatal, nullptr);
  EXPECT_EQ(fatal->epoch, 1);
}

TEST(Guardian, MinChannelFloorKeepsPrunedNetworkTrainable) {
  // An absurd threshold would historically prune entire variables away (or
  // throw); the floor guard keeps >= min channels per variable and the
  // model remains trainable end to end.
  auto data = data::SyntheticImageDataset(pruning_data());
  graph::Network net = small_net();
  core::TrainConfig cfg;
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.epochs = 2;
  cfg.batch_size = 64;
  cfg.base_lr = 0.1f;
  cfg.strategy_params["ratio"] = "0.3";
  cfg.reconfig_interval = 1;
  cfg.threshold = 1e9f;  // every channel is "prunable"
  cfg.prune_min_channels = 2;
  core::PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();
  EXPECT_TRUE(std::isfinite(result.epochs.back().train_loss));
  EXPECT_TRUE(std::isfinite(result.final_test_acc));
  for (int id : net.nodes_of_type<nn::Conv2d>()) {
    EXPECT_GE(net.layer_as<nn::Conv2d>(id).out_channels(), 1);
  }
  EXPECT_GT(net.num_params(), 0);
}

}  // namespace
}  // namespace pt
