// Data-parallel step tests: the defining property (synchronous data
// parallelism == single-device training on the full batch, for BN-free
// models), replica consistency, allreduce arithmetic, transient drop/delay
// faults, and comm accounting.
//
// The elastic half (ISSUE 5) adds the membership state machine, the bitwise
// determinism contract (injected kill == statically scheduled departure),
// kill-before/after-reconfiguration consistency, quorum-loss abort into the
// guardian, and checkpointed rejoin with a stale topology.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/reference_step.h"
#include "ckpt/checkpoint.h"
#include "core/trainer.h"
#include "dist/allreduce.h"
#include "dist/codec_zoo.h"
#include "dist/elastic.h"
#include "dist/membership.h"
#include "models/builders.h"
#include "robust/fault.h"
#include "robust/integrity.h"
#include "robust/recovery.h"
#include "prune/reconfigure.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pool.h"

namespace pt::dist {
namespace {

/// BN-free model so shard statistics cannot diverge from full-batch math.
graph::Network make_bnfree_net(std::uint64_t seed) {
  graph::Network net;
  Rng rng(seed);
  const int input = net.add_input();
  auto c1 = std::make_shared<nn::Conv2d>(2, 6, 3, 1, 1, rng);
  const int n1 = net.add_layer(c1, input);
  auto r1 = std::make_shared<nn::ReLU>();
  const int n2 = net.add_layer(r1, n1);
  auto gap = std::make_shared<nn::GlobalAvgPool>();
  const int n3 = net.add_layer(gap, n2);
  auto fc = std::make_shared<nn::Linear>(6, 3, rng);
  net.set_output(net.add_layer(fc, n3));
  return net;
}

data::Batch make_batch(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  data::Batch b;
  b.images = Tensor::randn({n, 2, 5, 5}, rng);
  for (std::int64_t i = 0; i < n; ++i) {
    b.labels.push_back(static_cast<std::int64_t>(rng.uniform_int(3)));
  }
  return b;
}

cost::CommSpec spec_for(int gpus) {
  cost::CommSpec s;
  s.gpus = gpus;
  return s;
}

ElasticCluster make_elastic(int replicas, std::uint64_t seed = 42,
                            MembershipConfig mc = {}) {
  std::vector<graph::Network> nets;
  for (int i = 0; i < replicas; ++i) nets.push_back(make_bnfree_net(seed));
  return ElasticCluster(std::move(nets), spec_for(replicas), mc);
}

void expect_params_bitwise_equal(graph::Network& a, graph::Network& b) {
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
    for (std::int64_t q = 0; q < pa[i]->value.numel(); ++q) {
      ASSERT_EQ(pa[i]->value.data()[q], pb[i]->value.data()[q]);
    }
  }
}

/// One single-device step of `net` on samples [begin, begin + n) of `batch`.
void solo_step(graph::Network& net, const data::Batch& batch,
               std::int64_t begin, std::int64_t n, optim::SGD& opt) {
  exec::ExecContext ctx(1);
  const Shape& s = batch.images.shape();
  const std::int64_t len = s[1] * s[2] * s[3];
  Tensor images({n, s[1], s[2], s[3]});
  std::copy(batch.images.data() + begin * len,
            batch.images.data() + (begin + n) * len, images.data());
  std::vector<std::int64_t> labels(batch.labels.begin() + begin,
                                   batch.labels.begin() + begin + n);
  nn::SoftmaxCrossEntropy loss;
  Tensor out = net.forward(ctx, images, true);
  loss.forward(out, labels);
  net.zero_grad();
  net.backward(ctx, loss.backward());
  opt.step(net.params());
}

/// Zeroes one stage-variable channel group (writers and readers alike, as
/// group lasso would) so Reconfigurer has real surgery to perform.
void zero_stage_group(graph::Network& net) {
  const auto& blk = net.info.blocks[0];
  auto& stem = net.layer_as<nn::Conv2d>(net.info.first_conv);
  auto& c1 = net.layer_as<nn::Conv2d>(blk.path_convs[0]);
  auto& c2 = net.layer_as<nn::Conv2d>(blk.path_convs[1]);
  const std::int64_t len0 = stem.in_channels() * 9;
  for (std::int64_t q = 0; q < len0; ++q) stem.weight().value.data()[q] = 0.f;
  const std::int64_t rs = 9;
  for (std::int64_t k = 0; k < c1.out_channels(); ++k) {
    for (std::int64_t q = 0; q < rs; ++q) {
      c1.weight().value.data()[(k * c1.in_channels()) * rs + q] = 0.f;
    }
  }
  const std::int64_t len2 = c2.in_channels() * rs;
  for (std::int64_t q = 0; q < len2; ++q) c2.weight().value.data()[q] = 0.f;
  const auto& blk1 = net.info.blocks[1];
  auto& n1 = net.layer_as<nn::Conv2d>(blk1.path_convs[0]);
  for (std::int64_t k = 0; k < n1.out_channels(); ++k) {
    for (std::int64_t q = 0; q < rs; ++q) {
      n1.weight().value.data()[(k * n1.in_channels()) * rs + q] = 0.f;
    }
  }
  auto& sc = net.layer_as<nn::Conv2d>(blk1.shortcut_conv);
  for (std::int64_t k = 0; k < sc.out_channels(); ++k) {
    sc.weight().value.data()[k * sc.in_channels()] = 0.f;
  }
}

models::ModelConfig small_resnet_cfg() {
  models::ModelConfig mc;
  mc.image_h = 8;
  mc.image_w = 8;
  mc.classes = 4;
  mc.width_mult = 0.5f;
  return mc;
}

data::Batch make_resnet_batch(std::uint64_t seed) {
  Rng rng(seed);
  data::Batch b;
  b.images = Tensor::randn({8, 3, 8, 8}, rng);
  for (int i = 0; i < 8; ++i) b.labels.push_back(i % 4);
  return b;
}

TEST(Cluster, RejectsMismatchedCommSpec) {
  std::vector<graph::Network> nets;
  nets.push_back(make_bnfree_net(1));
  EXPECT_THROW(ElasticCluster(std::move(nets), spec_for(4)),
               std::invalid_argument);
}

TEST(Cluster, StepMatchesSingleDeviceTraining) {
  // 4-way data parallelism on a divisible batch must produce the same
  // weights as one device with the full batch.
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(4, 7);
  graph::Network solo = make_bnfree_net(7);
  data::Batch batch = make_batch(16, 3);

  optim::SGD opt_cluster(0.1f, 0.9f);
  optim::SGD opt_solo(0.1f, 0.9f);
  for (int step = 0; step < 3; ++step) {
    cluster.step(ctx, batch, opt_cluster);
    solo_step(solo, batch, 0, batch.size(), opt_solo);
  }
  auto pc = cluster.replica(0).params();
  auto ps = solo.params();
  ASSERT_EQ(pc.size(), ps.size());
  for (std::size_t i = 0; i < pc.size(); ++i) {
    for (std::int64_t q = 0; q < pc[i]->value.numel(); ++q) {
      EXPECT_NEAR(pc[i]->value.data()[q], ps[i]->value.data()[q], 1e-5f)
          << "param " << i << " elem " << q;
    }
  }
}

TEST(Cluster, ReplicasStayIdentical) {
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(3, 9);
  optim::SGD opt(0.05f, 0.9f);
  for (int step = 0; step < 4; ++step) {
    // Uneven shards too.
    cluster.step(ctx, make_batch(9 + step, 100 + step), opt);
  }
  for (int r = 1; r < cluster.size(); ++r) {
    expect_params_bitwise_equal(cluster.replica(0), cluster.replica(r));
  }
}

TEST(Cluster, AllreduceAveragesGradients) {
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(2, 11);
  auto p0 = cluster.replica(0).params();
  auto p1 = cluster.replica(1).params();
  p0[0]->grad.fill(1.f);
  p1[0]->grad.fill(3.f);
  exchange_gradients(cluster.codec(),
                     {&cluster.replica(0), &cluster.replica(1)}, {1.0, 1.0},
                     ctx);
  EXPECT_FLOAT_EQ(p0[0]->grad.data()[0], 2.f);
  EXPECT_FLOAT_EQ(p1[0]->grad.data()[0], 2.f);
}

TEST(Cluster, AllreduceWeightsByShardSize) {
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(2, 12);
  auto p0 = cluster.replica(0).params();
  auto p1 = cluster.replica(1).params();
  p0[0]->grad.fill(1.f);
  p1[0]->grad.fill(4.f);
  // (3*1 + 1*4) / 4 = 1.75
  exchange_gradients(cluster.codec(),
                     {&cluster.replica(0), &cluster.replica(1)}, {3.0, 1.0},
                     ctx);
  EXPECT_FLOAT_EQ(p0[0]->grad.data()[0], 1.75f);
}

TEST(Cluster, RejectsEmptyBatch) {
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(4, 13);
  optim::SGD opt(0.1f);
  data::Batch empty;
  EXPECT_THROW(cluster.step(ctx, empty, opt), std::invalid_argument);
}

TEST(Cluster, TinyBatchDegradesGracefully) {
  // A batch smaller than the replica count used to throw; now the empty
  // shards simply carry zero allreduce weight, and the step is equivalent
  // to single-device training on the populated samples.
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(4, 13);
  graph::Network solo = make_bnfree_net(13);
  data::Batch batch = make_batch(2, 1);

  optim::SGD opt_cluster(0.1f, 0.9f);
  optim::SGD opt_solo(0.1f, 0.9f);
  const auto result = cluster.step(ctx, batch, opt_cluster);
  EXPECT_EQ(result.processed, 2);
  EXPECT_EQ(result.dropped_replicas, 0);
  solo_step(solo, batch, 0, batch.size(), opt_solo);

  auto pc = cluster.replica(0).params();
  auto ps = solo.params();
  ASSERT_EQ(pc.size(), ps.size());
  for (std::size_t i = 0; i < pc.size(); ++i) {
    for (std::int64_t q = 0; q < pc[i]->value.numel(); ++q) {
      ASSERT_NEAR(pc[i]->value.data()[q], ps[i]->value.data()[q], 1e-6f);
    }
  }
  // Idle replicas received the same broadcast + step: still bit-identical.
  expect_params_bitwise_equal(cluster.replica(0), cluster.replica(3));
}

TEST(Cluster, DropRetrySucceedsOnSecondAttempt) {
  // count defaults to 1: the first attempt of replica 0 fails, the retry
  // succeeds, and no samples are lost.
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(2, 21);
  cluster.set_fault_injector(
      robust::FaultInjector::from_string("drop-replica:replica=0", 99));
  optim::SGD opt(0.1f, 0.9f);
  const auto result = cluster.step(ctx, make_batch(8, 4), opt);
  EXPECT_EQ(result.retries, 1);
  EXPECT_EQ(result.dropped_replicas, 0);
  EXPECT_EQ(result.processed, 8);
  EXPECT_DOUBLE_EQ(result.fault_wait_seconds, kDropDetectSeconds);
}

TEST(Cluster, PersistentDropReweightsShardOntoSurvivors) {
  // Replica 1 stays down past every retry: its shard is excluded, the
  // survivors' update equals single-device training on replica 0's shard,
  // and the dropped replica still ends the step bit-identical (it receives
  // the broadcast and the common optimizer step) without leaving the
  // membership.
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(2, 22);
  graph::Network solo = make_bnfree_net(22);
  cluster.set_fault_injector(
      robust::FaultInjector::from_string("drop-replica:replica=1,count=0", 7));
  data::Batch batch = make_batch(8, 4);
  optim::SGD opt_cluster(0.1f, 0.9f);
  optim::SGD opt_solo(0.1f, 0.9f);
  const auto result = cluster.step(ctx, batch, opt_cluster);
  EXPECT_EQ(result.dropped_replicas, 1);
  EXPECT_EQ(result.retries, kDropRetries);
  EXPECT_EQ(result.processed, 4);
  EXPECT_EQ(result.live_replicas, 2);
  // Charged once per failed attempt (initial + every retry).
  EXPECT_DOUBLE_EQ(result.fault_wait_seconds,
                   static_cast<double>(kDropRetries + 1) * kDropDetectSeconds);
  EXPECT_FALSE(cluster.member(1).failed);
  EXPECT_EQ(cluster.member(1).state, ReplicaState::kHealthy);
  // The dropped shard's detection time is its replica's straggler sample.
  EXPECT_DOUBLE_EQ(cluster.member(1).ewma_step_seconds,
                   result.fault_wait_seconds);

  solo_step(solo, batch, 0, 4, opt_solo);
  auto pc = cluster.replica(0).params();
  auto ps = solo.params();
  for (std::size_t i = 0; i < pc.size(); ++i) {
    for (std::int64_t q = 0; q < pc[i]->value.numel(); ++q) {
      ASSERT_NEAR(pc[i]->value.data()[q], ps[i]->value.data()[q], 1e-6f);
    }
  }
  expect_params_bitwise_equal(cluster.replica(0), cluster.replica(1));
}

TEST(Cluster, DelayWithinTimeoutIsChargedNotRetried) {
  // A delay is straggler time, never a failed attempt.
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(2, 23);
  cluster.set_fault_injector(robust::FaultInjector::from_string(
      "delay-replica:replica=1,delay=0.3", 5));
  optim::SGD opt(0.1f);
  const auto result = cluster.step(ctx, make_batch(8, 6), opt);
  EXPECT_EQ(result.retries, 0);
  EXPECT_EQ(result.dropped_replicas, 0);
  EXPECT_DOUBLE_EQ(result.fault_wait_seconds, 0.3);
  EXPECT_EQ(result.processed, 8);
}

TEST(Cluster, EveryReplicaDownThrows) {
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(2, 25);
  cluster.set_fault_injector(
      robust::FaultInjector::from_string("drop-replica:count=0", 5));
  optim::SGD opt(0.1f);
  EXPECT_THROW(cluster.step(ctx, make_batch(8, 6), opt), ClusterDegraded);
}

TEST(Cluster, ReplicaTargetedGradientFaultKeepsReplicasIdentical) {
  // Gradient corruption on one replica flows through the allreduce into
  // everyone — replicas stay bit-identical (flagging the damage is the
  // HealthMonitor's job, not the cluster's).
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(2, 26);
  cluster.set_fault_injector(robust::FaultInjector::from_string(
      "scale-grad:replica=1,scale=100", 5));
  optim::SGD opt(0.1f, 0.9f);
  cluster.step(ctx, make_batch(8, 6), opt);
  EXPECT_EQ(cluster.fault_injector().total_fires(), 1);
  expect_params_bitwise_equal(cluster.replica(0), cluster.replica(1));
}

TEST(Cluster, FaultOrderIsTheSameAtEveryThreadCount) {
  // Drops are decided before the shards' region; gradient corruption and
  // delay come after it, in rank order. So at 1, 2 and 4 threads the same
  // clauses fire, the injector makes the same draws (the corrupted
  // elements land in the same places), and the params match bit for bit.
  const std::string faults =
      "drop-replica:replica=1,step=1,count=3;"
      "nan-grad:replica=2,step=1;"
      "bitflip-grad:replica=3,step=1;"
      "bitflip-grad:replica=0,step=1;"
      "delay-replica:replica=0,step=1,delay=2";
  struct Outcome {
    std::vector<StepResult> steps;
    std::int64_t fires = 0;
    std::vector<std::uint32_t> bits;  // every replica's params, in order
    std::size_t nans = 0;
  };
  auto run = [&](int threads) {
    ElasticCluster cluster = make_elastic(4, 31);
    cluster.set_fault_injector(robust::FaultInjector::from_string(faults, 9));
    exec::ExecContext ctx(threads);
    optim::SGD opt(0.1f, 0.9f);
    Outcome out;
    for (int step = 0; step < 2; ++step) {
      out.steps.push_back(cluster.step(ctx, make_batch(12, 40 + step), opt));
    }
    out.fires = cluster.fault_injector().total_fires();
    for (int r = 0; r < 4; ++r) {
      for (nn::Param* p : cluster.replica(r).params()) {
        for (std::int64_t q = 0; q < p->value.numel(); ++q) {
          const float v = p->value.data()[q];
          std::uint32_t b;
          std::memcpy(&b, &v, sizeof(b));
          out.bits.push_back(b);
          out.nans += std::isnan(v) ? 1 : 0;
        }
      }
    }
    return out;
  };

  const Outcome one = run(1);
  const StepResult& hit = one.steps[1];
  EXPECT_EQ(one.fires, 3 + 1 + 1 + 1 + 1);
  EXPECT_EQ(hit.retries, kDropRetries);
  EXPECT_EQ(hit.dropped_replicas, 1);
  EXPECT_EQ(hit.processed, 9);
  EXPECT_DOUBLE_EQ(hit.fault_wait_seconds, 3 * kDropDetectSeconds + 2.0);
  EXPECT_GE(one.nans, 4u);  // the NaN reached every replica's update
  for (int threads : {2, 4}) {
    const Outcome other = run(threads);
    EXPECT_EQ(other.fires, one.fires) << threads << " threads";
    for (std::size_t s = 0; s < one.steps.size(); ++s) {
      const StepResult& a = one.steps[s];
      const StepResult& b = other.steps[s];
      EXPECT_DOUBLE_EQ(a.loss, b.loss) << threads << " threads, step " << s;
      EXPECT_EQ(a.correct, b.correct);
      EXPECT_EQ(a.processed, b.processed);
      EXPECT_EQ(a.retries, b.retries);
      EXPECT_EQ(a.dropped_replicas, b.dropped_replicas);
      EXPECT_DOUBLE_EQ(a.fault_wait_seconds, b.fault_wait_seconds);
    }
    EXPECT_EQ(other.nans, one.nans) << threads << " threads";
    EXPECT_TRUE(other.bits == one.bits) << threads << " threads";
  }
}

TEST(Cluster, CommBytesMatchRingFormula) {
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(4, 14);
  optim::SGD opt(0.1f);
  const auto result = cluster.step(ctx, make_batch(8, 2), opt);
  const double model_bytes =
      static_cast<double>(cluster.replica(0).num_params()) * 4.0;
  EXPECT_DOUBLE_EQ(result.comm_bytes_per_gpu, 2.0 * 3.0 / 4.0 * model_bytes);
  EXPECT_GT(result.comm_time_modeled, 0.0);
  EXPECT_DOUBLE_EQ(cluster.update_bytes(), result.comm_bytes_per_gpu);
}

TEST(Cluster, LossDecreasesOverSteps) {
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(2, 15);
  optim::SGD opt(0.1f, 0.9f);
  data::Batch batch = make_batch(12, 5);
  double first = 0, last = 0;
  for (int step = 0; step < 15; ++step) {
    const auto r = cluster.step(ctx, batch, opt);
    if (step == 0) first = r.loss;
    last = r.loss;
  }
  EXPECT_LT(last, first);
}

TEST(Cluster, ReconfigurationKeepsReplicasConsistent) {
  // Data-parallel PruneTrain: every replica prunes deterministically from
  // identical weights, so reconfiguring each replica independently leaves
  // the cluster consistent and training proceeds on the smaller model.
  exec::ExecContext ctx(1);
  std::vector<graph::Network> nets;
  for (int i = 0; i < 2; ++i) {
    nets.push_back(models::build_resnet_basic(8, small_resnet_cfg()));
  }
  ElasticCluster cluster(std::move(nets), spec_for(2));

  // Kill one stage-variable channel identically on both replicas.
  for (int r = 0; r < 2; ++r) {
    graph::Network& net = cluster.replica(r);
    zero_stage_group(net);
    prune::Reconfigurer rec(net, 1e-4f);
    EXPECT_TRUE(rec.reconfigure().changed);
  }

  // Replica structures must agree, and training must still work.
  EXPECT_EQ(cluster.replica(0).num_params(), cluster.replica(1).num_params());
  optim::SGD opt(0.05f, 0.9f);
  const auto result = cluster.step(ctx, make_resnet_batch(77), opt);
  EXPECT_TRUE(std::isfinite(result.loss));
  expect_params_bitwise_equal(cluster.replica(0), cluster.replica(1));
}

// ---------------------------------------------------------------------------
// Elastic membership (ISSUE 5): state machine, determinism contract, quorum,
// reconfiguration under churn, and checkpointed rejoin.

namespace fs = std::filesystem;

/// Fresh per-test scratch directory (pid-suffixed so the plain and .asan
/// binaries never collide under a concurrent ctest run).
fs::path scratch_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("pt_dist_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

TEST(Membership, StateMachineFollowsHeartbeatProtocol) {
  MembershipConfig mc;
  mc.suspect_threshold = 2;
  MembershipTable table(4, mc);
  table.schedule_departure(2, 1);

  table.poll(0, nullptr);
  EXPECT_EQ(table.participants(), (std::vector<int>{0, 1, 2, 3}));

  // First missed ack: out of the step immediately (the latch decides
  // participation), state only SUSPECT.
  table.poll(1, nullptr);
  EXPECT_EQ(table.participants(), (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(table.member(2).state, ReplicaState::kSuspect);
  EXPECT_TRUE(table.member(2).failed);
  EXPECT_EQ(table.member(2).failed_since, 1);

  // Second consecutive miss reaches suspect_threshold: declared DEAD.
  table.poll(2, nullptr);
  EXPECT_EQ(table.member(2).state, ReplicaState::kDead);
  EXPECT_EQ(table.member(2).missed_acks, 2);

  auto edges = table.drain_transitions();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].describe(), "replica 2: healthy -> suspect at step 1");
  EXPECT_EQ(edges[1].describe(), "replica 2: suspect -> dead at step 2");

  // Rejoin: fenced for exactly one step, then a full participant again.
  table.schedule_rejoin(2, 4);
  table.poll(3, nullptr);
  EXPECT_EQ(table.member(2).state, ReplicaState::kDead);
  table.poll(4, nullptr);
  EXPECT_EQ(table.member(2).state, ReplicaState::kRejoining);
  EXPECT_EQ(table.rejoining(), (std::vector<int>{2}));
  EXPECT_EQ(table.participants(), (std::vector<int>{0, 1, 3}));
  table.poll(5, nullptr);
  EXPECT_EQ(table.member(2).state, ReplicaState::kHealthy);
  EXPECT_EQ(table.member(2).rejoined_at, 5);
  EXPECT_EQ(table.participants(), (std::vector<int>{0, 1, 2, 3}));

  edges = table.drain_transitions();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].describe(), "replica 2: dead -> rejoining at step 4");
  EXPECT_EQ(edges[1].describe(), "replica 2: rejoining -> healthy at step 5");
}

TEST(Membership, RejoinCanBeDisabled) {
  MembershipConfig mc;
  mc.suspect_threshold = 1;
  mc.allow_rejoin = false;
  MembershipTable table(2, mc);
  table.schedule_departure(1, 0);
  table.schedule_rejoin(1, 2);
  for (std::int64_t s = 0; s < 4; ++s) table.poll(s, nullptr);
  EXPECT_EQ(table.member(1).state, ReplicaState::kDead);
  EXPECT_EQ(table.participants(), (std::vector<int>{0}));
}

TEST(Membership, QuorumThresholdAndValidation) {
  MembershipConfig mc;
  mc.min_live_fraction = 0.5;
  EXPECT_EQ(MembershipTable(4, mc).quorum_threshold(), 2);
  mc.min_live_fraction = 0.51;
  EXPECT_EQ(MembershipTable(4, mc).quorum_threshold(), 3);
  mc.min_live_fraction = 1.0;
  EXPECT_EQ(MembershipTable(3, mc).quorum_threshold(), 3);

  MembershipConfig bad;
  bad.suspect_threshold = 0;
  EXPECT_THROW(MembershipTable(2, bad), std::invalid_argument);
  bad = {};
  bad.min_live_fraction = 0.0;
  EXPECT_THROW(MembershipTable(2, bad), std::invalid_argument);
  bad = {};
  bad.min_live_fraction = 1.5;
  EXPECT_THROW(MembershipTable(2, bad), std::invalid_argument);
  bad = {};
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(MembershipTable(2, bad), std::invalid_argument);
  EXPECT_THROW(MembershipTable(0, MembershipConfig{}), std::invalid_argument);
}

TEST(Membership, EwmaTracksStragglerEstimates) {
  MembershipConfig mc;
  mc.ewma_alpha = 0.2;
  MembershipTable table(2, mc);
  table.record_step_time(0, 1.0);  // first sample taken verbatim
  EXPECT_DOUBLE_EQ(table.member(0).ewma_step_seconds, 1.0);
  table.record_step_time(0, 2.0);
  EXPECT_DOUBLE_EQ(table.member(0).ewma_step_seconds, 0.2 * 2.0 + 0.8 * 1.0);
  EXPECT_DOUBLE_EQ(table.max_ewma({0, 1}), 1.2);
  EXPECT_DOUBLE_EQ(table.max_ewma({1}), 0.0);
}

TEST(ElasticCluster, AllHealthyMatchesFixedClusterBitwise) {
  // With nobody failing, the elastic step is the fixed-membership
  // reference step written out by hand: same contiguous shards, same
  // weighted rank-order allreduce, same update — bit for bit.
  exec::ExecContext ctx(1);
  std::vector<graph::Network> fixed;
  for (int r = 0; r < 3; ++r) fixed.push_back(make_bnfree_net(42));
  ElasticCluster elastic = make_elastic(3, 42);
  optim::SGD opt_a(0.05f, 0.9f);
  optim::SGD opt_b(0.05f, 0.9f);
  for (int step = 0; step < 4; ++step) {
    data::Batch batch = make_batch(9 + step, 40 + step);
    const auto ref = bench::reference_step(fixed, batch, opt_a);
    const auto rb = elastic.step(ctx, batch, opt_b);
    EXPECT_DOUBLE_EQ(ref.loss, rb.loss);
    EXPECT_EQ(ref.correct, rb.correct);
    EXPECT_EQ(rb.live_replicas, 3);
  }
  for (int r = 0; r < 3; ++r) {
    expect_params_bitwise_equal(fixed[static_cast<std::size_t>(r)],
                                elastic.replica(r));
  }
}

TEST(ElasticCluster, InjectedKillAtStepNMatchesStaticScheduleBitwise) {
  // The acceptance test for the determinism contract: a run where replica 2
  // is killed by an injected fault at step 5 (detection machinery and all)
  // is bitwise identical to a run whose membership schedule had that
  // departure fixed from step 0.
  exec::ExecContext ctx(1);
  ElasticCluster injected = make_elastic(4, 42);
  injected.set_fault_injector(
      robust::FaultInjector::from_string("kill-replica:replica=2,step=5", 99));
  ElasticCluster scheduled = make_elastic(4, 42);
  scheduled.schedule_departure(2, 5);

  optim::SGD opt_a(0.05f, 0.9f);
  optim::SGD opt_b(0.05f, 0.9f);
  for (int step = 0; step < 10; ++step) {
    data::Batch batch = make_batch(13, 300 + step);  // uneven shards too
    const auto ra = injected.step(ctx, batch, opt_a);
    const auto rb = scheduled.step(ctx, batch, opt_b);
    EXPECT_EQ(ra.live_replicas, rb.live_replicas);
    EXPECT_EQ(ra.processed, rb.processed);
    EXPECT_DOUBLE_EQ(ra.loss, rb.loss);
  }
  EXPECT_TRUE(injected.member(2).failed);
  EXPECT_EQ(injected.member(2).failed_since, 5);
  EXPECT_EQ(scheduled.member(2).failed_since, 5);
  EXPECT_EQ(injected.member(2).state, ReplicaState::kDead);
  for (int r = 0; r < 4; ++r) {
    expect_params_bitwise_equal(injected.replica(r), scheduled.replica(r));
  }
  // The survivors also agree with each other (same broadcast).
  expect_params_bitwise_equal(injected.replica(0), injected.replica(1));
  expect_params_bitwise_equal(injected.replica(0), injected.replica(3));
}

TEST(ElasticCluster, FlakyFaultsAreDeterministicGivenSeed) {
  exec::ExecContext ctx(1);
  MembershipConfig mc;
  mc.min_live_fraction = 0.25;
  auto build = [&]() {
    ElasticCluster c = make_elastic(4, 42, mc);
    c.set_fault_injector(robust::FaultInjector::from_string(
        "flaky-replica:prob=0.3,count=0", 7));
    return c;
  };
  ElasticCluster a = build();
  ElasticCluster b = build();
  optim::SGD opt_a(0.05f, 0.9f);
  optim::SGD opt_b(0.05f, 0.9f);
  bool degraded_a = false;
  bool degraded_b = false;
  for (int step = 0; step < 8; ++step) {
    data::Batch batch = make_batch(12, 700 + step);
    if (!degraded_a) {
      try {
        a.step(ctx, batch, opt_a);
      } catch (const ClusterDegraded&) {
        degraded_a = true;
      }
    }
    if (!degraded_b) {
      try {
        b.step(ctx, batch, opt_b);
      } catch (const ClusterDegraded&) {
        degraded_b = true;
      }
    }
    ASSERT_EQ(degraded_a, degraded_b);  // same seed, same fate, same step
  }
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(a.member(r).failed, b.member(r).failed);
    EXPECT_EQ(a.member(r).failed_since, b.member(r).failed_since);
    EXPECT_EQ(a.member(r).state, b.member(r).state);
    expect_params_bitwise_equal(a.replica(r), b.replica(r));
  }
}

TEST(ElasticCluster, QuorumLossRaisesClusterDegraded) {
  exec::ExecContext ctx(1);
  MembershipConfig mc;
  mc.min_live_fraction = 0.75;  // quorum = 3 of 4
  ElasticCluster cluster = make_elastic(4, 42, mc);
  cluster.schedule_departure(1, 1);
  cluster.schedule_departure(2, 1);
  optim::SGD opt(0.05f, 0.9f);
  cluster.step(ctx, make_batch(8, 1), opt);  // 4 live: fine
  try {
    cluster.step(ctx, make_batch(8, 2), opt);
    FAIL() << "expected ClusterDegraded";
  } catch (const ClusterDegraded& e) {
    EXPECT_EQ(e.event().type, robust::EventType::kQuorumLoss);
    EXPECT_EQ(e.event().severity, robust::Severity::kFatal);
    EXPECT_DOUBLE_EQ(e.event().value, 2.0);  // live count at the loss
    EXPECT_NE(std::string(e.what()).find("quorum"), std::string::npos);
  }
  const auto events = cluster.drain_health_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, robust::EventType::kQuorumLoss);
}

TEST(ElasticCluster, EveryReplicaDeadIsDegradedEvenAtMinimalQuorum) {
  exec::ExecContext ctx(1);
  MembershipConfig mc;
  mc.min_live_fraction = 0.25;  // quorum = 1 — but zero participants is
                                // always degraded
  ElasticCluster cluster = make_elastic(2, 42, mc);
  cluster.schedule_departure(0, 1);
  cluster.schedule_departure(1, 1);
  optim::SGD opt(0.05f, 0.9f);
  cluster.step(ctx, make_batch(6, 1), opt);
  EXPECT_THROW(cluster.step(ctx, make_batch(6, 2), opt),
               ClusterDegraded);
}

TEST(ElasticCluster, DegenerateRingChargesNoComm) {
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(2, 42);  // quorum = 1 of 2
  cluster.schedule_departure(1, 1);
  optim::SGD opt(0.05f, 0.9f);
  cluster.step(ctx, make_batch(6, 1), opt);
  const auto r = cluster.step(ctx, make_batch(6, 2), opt);
  EXPECT_EQ(r.live_replicas, 1);
  EXPECT_DOUBLE_EQ(r.comm_bytes_per_gpu, 0.0);
  EXPECT_DOUBLE_EQ(r.comm_time_modeled, 0.0);
  EXPECT_DOUBLE_EQ(cluster.update_bytes(), 0.0);
  EXPECT_TRUE(std::isfinite(r.loss));
}

TEST(ElasticCluster, BorrowedRankZeroIsTheCallersNetwork) {
  // The trainer lends its own model as rank 0, so a one-replica cluster
  // trains that network and holds no second copy of it.
  exec::ExecContext ctx(1);
  graph::Network net = make_bnfree_net(42);
  const graph::Network before = make_bnfree_net(42);
  ElasticCluster cluster(net, 1, spec_for(1));
  EXPECT_EQ(cluster.size(), 1);
  EXPECT_EQ(&cluster.replica(0), &net);
  optim::SGD opt(0.05f, 0.9f);
  cluster.step(ctx, make_batch(6, 1), opt);
  EXPECT_NE(net.params()[0]->value.data()[0],
            before.params()[0]->value.data()[0]);

  // Ranks past 0 are the cluster's own bit-exact clones.
  ElasticCluster three(net, 3, spec_for(3));
  EXPECT_EQ(&three.replica(0), &net);
  EXPECT_NE(&three.replica(1), &net);
  expect_params_bitwise_equal(three.replica(1), net);
  expect_params_bitwise_equal(three.replica(2), net);
}

TEST(ElasticCluster, StragglerDelayFeedsModeledStepTime) {
  exec::ExecContext ctx(1);
  ElasticCluster cluster = make_elastic(2, 42);
  cluster.set_fault_injector(robust::FaultInjector::from_string(
      "delay-replica:replica=1,delay=3.5,count=0", 5));
  optim::SGD opt(0.05f, 0.9f);
  const auto r = cluster.step(ctx, make_batch(8, 9), opt);
  EXPECT_DOUBLE_EQ(r.fault_wait_seconds, 3.5);
  EXPECT_GT(cluster.member(1).ewma_step_seconds, 3.5);
  EXPECT_GE(r.step_time_modeled, 3.5 + r.comm_time_modeled);
  // Straggler accounting is bookkeeping, never numerics: both replicas
  // still agree bitwise.
  expect_params_bitwise_equal(cluster.replica(0), cluster.replica(1));
}

TEST(ElasticCluster, RejoinerReplaysTopologyFromCheckpointAndSyncsBitwise) {
  exec::ExecContext ctx(1);
  const fs::path dir = scratch_dir("rejoin");
  MembershipConfig mc;
  mc.suspect_threshold = 1;  // dead on the first missed ack
  mc.min_live_fraction = 0.25;
  ElasticCluster cluster = make_elastic(3, 42, mc);
  const std::string ckpt_path = (dir / "ckpt-latest.bin").string();
  ckpt::Checkpoint::capture(cluster.replica(0)).save(ckpt_path);
  cluster.set_resync_checkpoint(ckpt_path);
  cluster.schedule_departure(1, 2);
  cluster.schedule_rejoin(1, 3);

  optim::SGD opt(0.05f, 0.9f);
  for (int step = 0; step < 3; ++step) {
    cluster.step(ctx, make_batch(9, 900 + step), opt);
  }
  EXPECT_EQ(cluster.member(1).state, ReplicaState::kDead);

  // Step 3: the rejoiner is fenced (2 participants) and resynced at the end.
  const auto fence = cluster.step(ctx, make_batch(9, 903), opt);
  EXPECT_EQ(fence.live_replicas, 2);
  EXPECT_GT(fence.resync_bytes, 0);
  EXPECT_EQ(cluster.member(1).state, ReplicaState::kRejoining);
  EXPECT_EQ(cluster.resync_bytes_total(), fence.resync_bytes);

  // Step 4: first synced step — a full participant, bitwise identical.
  const auto synced = cluster.step(ctx, make_batch(9, 904), opt);
  EXPECT_EQ(synced.live_replicas, 3);
  EXPECT_EQ(cluster.member(1).rejoined_at, 4);
  expect_params_bitwise_equal(cluster.replica(0), cluster.replica(1));
  expect_params_bitwise_equal(cluster.replica(0), cluster.replica(2));

  const auto edges = cluster.drain_transitions();
  ASSERT_GE(edges.size(), 4u);
  EXPECT_EQ(edges.back().describe(), "replica 1: rejoining -> healthy at step 4");
  fs::remove_all(dir);
}

TEST(ElasticCluster, KillStraddlingReconfigurationKeepsSurvivorsConsistent) {
  // One replica dies before the reconfiguration boundary, another after it;
  // the survivors must agree bitwise throughout, and the pre-boundary
  // corpse keeps its stale (unpruned) topology.
  exec::ExecContext ctx(1);
  models::ModelConfig mcfg = small_resnet_cfg();
  std::vector<graph::Network> nets;
  for (int i = 0; i < 4; ++i) nets.push_back(models::build_resnet_basic(8, mcfg));
  MembershipConfig mc;
  mc.min_live_fraction = 0.25;
  ElasticCluster cluster(std::move(nets), spec_for(4), mc);
  cluster.schedule_departure(3, 1);  // dies before the reconfiguration
  cluster.schedule_departure(1, 4);  // dies after it

  optim::SGD opt(0.05f, 0.9f);
  auto run_step = [&](int step) {
    return cluster.step(
        ctx, make_resnet_batch(500 + static_cast<std::uint64_t>(step)),
        opt);
  };
  run_step(0);
  run_step(1);  // replica 3 latches out here

  // Reconfiguration boundary: identical surgery on every live replica; the
  // dead replica 3 is skipped exactly as the trainer skips it.
  for (int r : {0, 1, 2}) {
    graph::Network& net = cluster.replica(r);
    zero_stage_group(net);
    prune::Reconfigurer rec(net, 1e-4f);
    EXPECT_TRUE(rec.reconfigure().changed);
  }
  EXPECT_GT(cluster.replica(3).num_params(), cluster.replica(0).num_params());
  EXPECT_EQ(cluster.replica(0).num_params(), cluster.replica(2).num_params());

  run_step(2);
  run_step(3);
  run_step(4);  // replica 1 latches out here, post-reconfiguration
  const auto last = run_step(5);
  EXPECT_EQ(last.live_replicas, 2);
  EXPECT_TRUE(std::isfinite(last.loss));
  EXPECT_EQ(cluster.member(1).failed_since, 4);
  expect_params_bitwise_equal(cluster.replica(0), cluster.replica(2));
}

TEST(ElasticCluster, RejoinWithStaleTopologyFallsBackToSurvivorClone) {
  // The checkpoint on disk predates a reconfiguration, so its shapes are
  // stale; the rejoiner must detect that during topology replay and clone
  // the survivor's structure instead, ending bitwise-synced.
  exec::ExecContext ctx(1);
  const fs::path dir = scratch_dir("stale");
  models::ModelConfig mcfg = small_resnet_cfg();
  std::vector<graph::Network> nets;
  for (int i = 0; i < 3; ++i) nets.push_back(models::build_resnet_basic(8, mcfg));
  MembershipConfig mc;
  mc.suspect_threshold = 2;
  mc.min_live_fraction = 0.25;
  ElasticCluster cluster(std::move(nets), spec_for(3), mc);

  // Pre-reconfiguration checkpoint — will be stale by rejoin time.
  const std::string ckpt_path = (dir / "ckpt-latest.bin").string();
  ckpt::Checkpoint::capture(cluster.replica(0)).save(ckpt_path);
  cluster.set_resync_checkpoint(ckpt_path);
  cluster.schedule_departure(2, 1);

  optim::SGD opt(0.05f, 0.9f);
  for (int step = 0; step < 3; ++step) {
    cluster.step(ctx,
                 make_resnet_batch(600 + static_cast<std::uint64_t>(step)),
                 opt);
  }
  EXPECT_EQ(cluster.member(2).state, ReplicaState::kDead);

  // Reconfigure the live replicas while 2 is dead.
  for (int r : {0, 1}) {
    graph::Network& net = cluster.replica(r);
    zero_stage_group(net);
    prune::Reconfigurer rec(net, 1e-4f);
    EXPECT_TRUE(rec.reconfigure().changed);
  }
  EXPECT_GT(cluster.replica(2).num_params(), cluster.replica(0).num_params());

  cluster.schedule_rejoin(2, 4);
  cluster.step(ctx, make_resnet_batch(603), opt);  // step 3: 2 live
  const auto fence =
      cluster.step(ctx, make_resnet_batch(604), opt);  // fence
  EXPECT_GT(fence.resync_bytes, 0);
  const auto synced = cluster.step(ctx, make_resnet_batch(605), opt);
  EXPECT_EQ(synced.live_replicas, 3);
  EXPECT_EQ(cluster.replica(2).num_params(), cluster.replica(0).num_params());
  expect_params_bitwise_equal(cluster.replica(0), cluster.replica(2));
  expect_params_bitwise_equal(cluster.replica(0), cluster.replica(1));
  fs::remove_all(dir);
}

TEST(AllreduceDivergence, NamesTheOffendingReplica) {
  exec::ExecContext ctx(1);
  graph::Network a = make_bnfree_net(1);
  // A structurally different replica: its parameter table cannot match.
  graph::Network b;
  {
    Rng rng(3);
    const int input = b.add_input();
    auto gap = std::make_shared<nn::GlobalAvgPool>();
    const int n1 = b.add_layer(gap, input);
    auto fc = std::make_shared<nn::Linear>(2, 3, rng);
    b.set_output(b.add_layer(fc, n1));
  }
  std::vector<graph::Network*> nets{&a, &b};
  DenseCodec codec;
  codec.bind(a, 2);
  try {
    exchange_gradients(codec, nets, {1.0, 1.0}, ctx);
    FAIL() << "expected ReplicaDivergence";
  } catch (const ReplicaDivergence& e) {
    EXPECT_EQ(e.replica(), 1);
    EXPECT_EQ(e.param_count(), b.params().size());
    EXPECT_EQ(e.expected_count(), a.params().size());
    EXPECT_NE(std::string(e.what()).find("replica 1"), std::string::npos);
    const auto ev = e.to_health_event(7);
    EXPECT_EQ(ev.type, robust::EventType::kReplicaDivergence);
    EXPECT_EQ(ev.severity, robust::Severity::kFatal);
    EXPECT_EQ(ev.epoch, 7);
  }
  // With an explicit rank map the true cluster rank is reported, not the
  // dense index into the participant list.
  try {
    exchange_gradients(codec, nets, {1.0, 1.0}, ctx,
                       {0, 3});
    FAIL() << "expected ReplicaDivergence";
  } catch (const ReplicaDivergence& e) {
    EXPECT_EQ(e.replica(), 3);
  }
}

// ---------------------------------------------------------------------------
// Trainer-level elastic runs.

data::SyntheticSpec elastic_data() {
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

graph::Network elastic_net() {
  models::ModelConfig mc;
  mc.image_h = 8;
  mc.image_w = 8;
  mc.classes = 8;
  mc.width_mult = 0.5f;
  mc.seed = 21;
  return models::build_resnet_basic(8, mc);
}

core::TrainConfig elastic_cfg(const std::string& dir) {
  core::TrainConfig cfg;
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.epochs = 4;
  cfg.batch_size = 64;
  cfg.base_lr = 0.1f;
  cfg.weight_decay = 1e-4f;
  cfg.lr_milestones = {3};
  cfg.strategy_params["ratio"] = "0.3";
  // Proxy time compression; prunes by epoch 2.
  cfg.strategy_params["boost"] = "2000";
  cfg.reconfig_interval = 2;
  cfg.eval_interval = 2;
  cfg.checkpoint_dir = dir;
  cfg.max_rollbacks = 2;
  cfg.replicas = 2;
  return cfg;
}

TEST(ElasticTrainer, ValidatesElasticFields) {
  core::TrainConfig cfg;
  cfg.replicas = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.replicas = 2;
  cfg.min_live_fraction = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.replicas = 2;
  cfg.suspect_threshold = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.replicas = 2;
  cfg.strategy_params["proximal"] = "false";
  EXPECT_NO_THROW(cfg.validate());
  cfg = {};
  cfg.replicas = 2;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ElasticTrainer, SurvivesPermanentKillMidRun) {
  auto data = data::SyntheticImageDataset(elastic_data());
  const fs::path dir = scratch_dir("kill");
  graph::Network net = elastic_net();
  core::TrainConfig cfg = elastic_cfg(dir.string());
  cfg.fault_spec = "kill-replica:replica=1,step=3";
  core::PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();

  // The run completes on the surviving replica (quorum = 1 of 2), through
  // reconfigurations, with the fault accounted and no abort.
  EXPECT_EQ(result.epochs.size(), 4u);
  EXPECT_TRUE(std::isfinite(result.epochs.back().train_loss));
  EXPECT_TRUE(std::isfinite(result.final_test_acc));
  EXPECT_FALSE(trainer.recovery_report().aborted);
  EXPECT_GE(trainer.recovery_report().faults_injected, 1);
  fs::remove_all(dir);
}

TEST(ElasticTrainer, TransientDropRetriesAndMatchesFaultFreeRunBitwise) {
  // count=1: replica 1's first attempt at step 3 fails and the retry
  // succeeds, so the fault fires without changing a single bit of the run.
  auto data = data::SyntheticImageDataset(elastic_data());
  const fs::path clean_dir = scratch_dir("drop_clean");
  const fs::path drop_dir = scratch_dir("drop_retry");
  graph::Network clean = elastic_net();
  core::PruneTrainer(clean, data, elastic_cfg(clean_dir.string())).run();

  graph::Network net = elastic_net();
  core::TrainConfig cfg = elastic_cfg(drop_dir.string());
  cfg.fault_spec = "drop-replica:replica=1,step=3";
  core::PruneTrainer trainer(net, data, cfg);
  trainer.run();
  EXPECT_EQ(trainer.recovery_report().faults_injected, 1);
  EXPECT_EQ(trainer.recovery_report().rollbacks, 0);
  expect_params_bitwise_equal(clean, net);
  fs::remove_all(clean_dir);
  fs::remove_all(drop_dir);
}

TEST(ElasticTrainer, PersistentDropKeepsReplicasIdenticalUnderSdcChecks) {
  // count=0: replica 1 fails every attempt at step 3, so its shard is
  // dropped for that step. It still takes the averaged update, so the
  // digest vote run after every step never sees the replicas disagree.
  auto data = data::SyntheticImageDataset(elastic_data());
  const fs::path dir = scratch_dir("drop_sdc");
  graph::Network net = elastic_net();
  core::TrainConfig cfg = elastic_cfg(dir.string());
  cfg.fault_spec = "drop-replica:replica=1,step=3,count=0";
  cfg.sdc_check_interval = 1;
  core::PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();

  EXPECT_EQ(result.epochs.size(), 4u);
  EXPECT_EQ(trainer.recovery_report().faults_injected, kDropRetries + 1);
  ASSERT_NE(trainer.integrity_monitor(), nullptr);
  EXPECT_GT(trainer.integrity_monitor()->checks(), 0);
  for (const auto& ev : trainer.recovery_report().events) {
    EXPECT_NE(ev.type, robust::EventType::kSdcDetected) << ev.describe();
    EXPECT_NE(ev.type, robust::EventType::kSdcNoQuorum) << ev.describe();
  }
  fs::remove_all(dir);
}

TEST(ElasticTrainer, NonProximalLassoKeepsReplicasIdentical) {
  // The penalty gradient is added on every participant after the
  // exchange, so non-proximal group lasso keeps the replicas
  // bit-identical: a digest vote after every step never splits.
  auto data = data::SyntheticImageDataset(elastic_data());
  const fs::path dir = scratch_dir("non_proximal");
  graph::Network net = elastic_net();
  core::TrainConfig cfg = elastic_cfg(dir.string());
  cfg.strategy_params["proximal"] = "false";
  cfg.sdc_check_interval = 1;
  core::PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();

  EXPECT_EQ(result.epochs.size(), 4u);
  ASSERT_NE(trainer.integrity_monitor(), nullptr);
  EXPECT_GT(trainer.integrity_monitor()->checks(), 0);
  for (const auto& ev : trainer.recovery_report().events) {
    EXPECT_NE(ev.type, robust::EventType::kSdcDetected) << ev.describe();
  }
  fs::remove_all(dir);
}

TEST(ElasticTrainer, QuorumLossUnderFlakyAbortsWithDiagnosticCheckpoint) {
  auto data = data::SyntheticImageDataset(elastic_data());
  const fs::path dir = scratch_dir("quorum");
  graph::Network net = elastic_net();
  core::TrainConfig cfg = elastic_cfg(dir.string());
  cfg.replicas = 4;
  cfg.min_live_fraction = 0.75;
  cfg.fault_spec = "flaky-replica:prob=1,count=0";  // everyone dies at once
  core::PruneTrainer trainer(net, data, cfg);
  try {
    trainer.run();
    FAIL() << "expected robust::TrainingAborted";
  } catch (const robust::TrainingAborted& e) {
    EXPECT_TRUE(e.report().aborted);
    bool saw_quorum_loss = false;
    for (const auto& ev : e.report().events) {
      if (ev.type == robust::EventType::kQuorumLoss) {
        saw_quorum_loss = true;
        EXPECT_GE(ev.epoch, 0);  // stamped by the trainer, not -1
      }
    }
    EXPECT_TRUE(saw_quorum_loss);
  }

  // A serialized guardian report rides in the diagnostic checkpoint.
  ckpt::Checkpoint ck =
      ckpt::Checkpoint::load((dir / "ckpt-diagnostic.bin").string());
  const std::vector<std::uint8_t>* section = ck.section("guardian");
  ASSERT_NE(section, nullptr);
  const auto report = robust::deserialize_report(*section);
  EXPECT_TRUE(report.aborted);
  ASSERT_FALSE(report.events.empty());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pt::dist
