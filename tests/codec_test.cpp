// Gradient-codec tests (ISSUE 9): the registry contract (mirroring the
// strategy registry), per-codec wire semantics, and a conformance suite
// parameterized over every registered codec name — round-trip shape,
// bitwise 1-vs-4-thread exchanges, state round-trip, elastic kill/rejoin
// determinism under compression, and trainer-level mid-phase resume with
// residual state. The twobit-vs-dense convergence ablation keeps the
// compressed path honest: error feedback must track the dense trajectory,
// not just shrink bytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "dist/allreduce.h"
#include "dist/codec.h"
#include "dist/codec_zoo.h"
#include "dist/elastic.h"
#include "models/builders.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pool.h"

namespace pt::dist {
namespace {

namespace fs = std::filesystem;

/// BN-free model (shard statistics cannot diverge from full-batch math).
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

/// Deterministic per-replica gradients without a forward/backward pass.
void fill_grads(graph::Network& net, std::uint64_t seed) {
  Rng rng(seed);
  for (nn::Param* p : net.params()) {
    Tensor r = Tensor::randn({p->grad.numel()}, rng);
    std::copy(r.data(), r.data() + r.numel(), p->grad.data());
  }
}

void expect_grads_bitwise_equal(graph::Network& a, graph::Network& b) {
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->grad.numel(), pb[i]->grad.numel());
    for (std::int64_t q = 0; q < pa[i]->grad.numel(); ++q) {
      ASSERT_EQ(pa[i]->grad.data()[q], pb[i]->grad.data()[q])
          << "param " << i << " elem " << q;
    }
  }
}

void expect_params_bitwise_equal(graph::Network& a, graph::Network& b) {
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
    for (std::int64_t q = 0; q < pa[i]->value.numel(); ++q) {
      ASSERT_EQ(pa[i]->value.data()[q], pb[i]->value.data()[q])
          << "param " << i << " elem " << q;
    }
  }
}

void expect_state_equal(const std::vector<StateItem>& a,
                        const std::vector<StateItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    ASSERT_EQ(a[i].f32.size(), b[i].f32.size());
    for (std::size_t j = 0; j < a[i].f32.size(); ++j) {
      EXPECT_EQ(a[i].f32[j], b[i].f32[j]) << a[i].name << "[" << j << "]";
    }
    EXPECT_EQ(a[i].i64, b[i].i64);
  }
}

fs::path scratch_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("pt_codec_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Registry contract.

TEST(CodecRegistry, ListsBuiltinZoo) {
  const auto names = CodecRegistry::global().names();
  auto has = [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("dense"));
  EXPECT_TRUE(has("twobit"));
  EXPECT_TRUE(has("live_channel"));
}

TEST(CodecRegistry, UnknownCodecAndParamsFailLoudly) {
  auto& reg = CodecRegistry::global();
  try {
    reg.create("nope");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown gradient codec"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("dense"), std::string::npos);
  }
  try {
    reg.create("dense", {{"threshold_scale", "2.0"}});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("has no parameter"),
              std::string::npos);
  }
  EXPECT_THROW(reg.create("twobit", {{"threshold_scale", "abc"}}),
               std::invalid_argument);
  // twobit quantizes only at a positive scale: a non-finite, zero or
  // negative multiplier would zero every exchanged gradient.
  for (const char* bad : {"nan", "inf", "-inf", "0", "-1"}) {
    try {
      reg.create("twobit", {{"threshold_scale", bad}});
      ADD_FAILURE() << "accepted threshold_scale=" << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'threshold_scale'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(reg.create("twobit", {{"threshold_scale", "1.5"}}));
}

TEST(CodecRegistry, FactoriesReportCostKinds) {
  auto& reg = CodecRegistry::global();
  EXPECT_EQ(reg.create("dense")->cost_kind(), cost::CommCodec::kDense);
  EXPECT_EQ(reg.create("twobit")->cost_kind(), cost::CommCodec::kTwoBit);
  EXPECT_EQ(reg.create("live_channel")->cost_kind(),
            cost::CommCodec::kLiveChannel);
}

// ---------------------------------------------------------------------------
// Conformance suite over every registered codec.

class CodecConformance : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<GradientCodec> make() {
    return CodecRegistry::global().create(GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecConformance,
    ::testing::ValuesIn(CodecRegistry::global().names()));

TEST_P(CodecConformance, EncodeDecodeRoundTripsShapeAndStaysFinite) {
  graph::Network net = make_bnfree_net(7);
  fill_grads(net, 100);
  auto codec = make();
  codec->bind(net, 1);
  auto params = net.params();
  exec::ExecContext ctx(1);
  for (std::size_t t = 0; t < params.size(); ++t) {
    const std::int64_t n = params[t]->grad.numel();
    const WireTensor wire =
        codec->encode(0, t, params[t]->grad.data(), n, ctx);
    EXPECT_EQ(wire.count, n);
    EXPECT_GT(wire.wire_bytes, 0.0);
    // No codec may exceed the dense wire volume by more than header slack.
    EXPECT_LE(wire.wire_bytes, static_cast<double>(n) * 4.0 + 64.0);
    std::vector<float> out(static_cast<std::size_t>(n),
                           std::numeric_limits<float>::quiet_NaN());
    codec->decode(wire, t, out.data(), ctx);
    for (float v : out) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_P(CodecConformance, ExchangeIsBitwiseIdenticalAcrossThreadCounts) {
  auto run = [&](exec::ExecContext& ctx, graph::Network& a,
                 graph::Network& b) {
    fill_grads(a, 100);
    fill_grads(b, 101);
    auto codec = make();
    codec->bind(a, 2);
    std::vector<graph::Network*> nets{&a, &b};
    // Two rounds so stateful codecs exercise residual carry-over.
    exchange_gradients(*codec, nets, {3.0, 1.0}, ctx);
    fill_grads(a, 102);
    fill_grads(b, 103);
    exchange_gradients(*codec, nets, {1.0, 1.0}, ctx);
    return codec->state();
  };

  graph::Network a1 = make_bnfree_net(7), b1 = make_bnfree_net(7);
  graph::Network a4 = make_bnfree_net(7), b4 = make_bnfree_net(7);
  exec::ExecContext one(1), four(4);
  const std::vector<StateItem> s1 = run(one, a1, b1);
  const std::vector<StateItem> s4 = run(four, a4, b4);

  expect_grads_bitwise_equal(a1, a4);
  expect_grads_bitwise_equal(b1, b4);
  expect_state_equal(s1, s4);
}

TEST_P(CodecConformance, StateRoundTripReproducesFutureExchangesBitwise) {
  graph::Network a = make_bnfree_net(9), b = make_bnfree_net(9);
  graph::Network a2 = make_bnfree_net(9), b2 = make_bnfree_net(9);
  exec::ExecContext ctx(1);

  auto original = make();
  original->bind(a, 2);
  fill_grads(a, 200);
  fill_grads(b, 201);
  std::vector<graph::Network*> nets{&a, &b};
  exchange_gradients(*original, nets, {1.0, 1.0}, ctx);

  // Clone via the serialization contract, then run one more exchange on
  // both instances from identical inputs: outputs and state must match
  // bitwise, or resume/rollback replay would diverge.
  auto clone = make();
  clone->bind(a2, 2);
  clone->load_state(original->state());

  fill_grads(a, 202);
  fill_grads(b, 203);
  fill_grads(a2, 202);
  fill_grads(b2, 203);
  std::vector<graph::Network*> nets2{&a2, &b2};
  exchange_gradients(*original, nets, {2.0, 1.0}, ctx);
  exchange_gradients(*clone, nets2, {2.0, 1.0}, ctx);

  expect_grads_bitwise_equal(a, a2);
  expect_grads_bitwise_equal(b, b2);
  expect_state_equal(original->state(), clone->state());
}

TEST_P(CodecConformance, ClusterStepsAreBitwiseIdenticalAcrossThreadCounts) {
  auto build = [&]() {
    std::vector<graph::Network> nets;
    for (int i = 0; i < 2; ++i) nets.push_back(make_bnfree_net(42));
    cost::CommSpec spec;
    spec.gpus = 2;
    ElasticCluster c(std::move(nets), spec);
    c.set_codec(CodecRegistry::global().create(GetParam()));
    return c;
  };
  ElasticCluster one = build();
  ElasticCluster four = build();
  exec::ExecContext ctx1(1), ctx4(4);
  optim::SGD opt_a(0.05f, 0.9f);
  optim::SGD opt_b(0.05f, 0.9f);
  for (int step = 0; step < 4; ++step) {
    data::Batch batch = make_batch(9 + step, 500 + step);
    const auto ra = one.step(ctx1, batch, opt_a);
    const auto rb = four.step(ctx4, batch, opt_b);
    EXPECT_DOUBLE_EQ(ra.loss, rb.loss);
    EXPECT_EQ(ra.correct, rb.correct);
  }
  for (int r = 0; r < 2; ++r) {
    expect_params_bitwise_equal(one.replica(r), four.replica(r));
  }
}

TEST_P(CodecConformance, ElasticKillRejoinIsDeterministicUnderCompression) {
  auto build = [&]() {
    std::vector<graph::Network> nets;
    for (int i = 0; i < 3; ++i) nets.push_back(make_bnfree_net(42));
    cost::CommSpec spec;
    spec.gpus = 3;
    MembershipConfig mc;
    mc.min_live_fraction = 0.3;
    ElasticCluster c(std::move(nets), spec, mc);
    c.set_codec(CodecRegistry::global().create(GetParam()));
    c.schedule_departure(1, 2);
    c.schedule_rejoin(1, 5);
    return c;
  };
  ElasticCluster one = build();
  ElasticCluster four = build();
  exec::ExecContext ctx1(1), ctx4(4);
  optim::SGD opt_a(0.05f, 0.9f);
  optim::SGD opt_b(0.05f, 0.9f);
  for (int step = 0; step < 9; ++step) {
    data::Batch batch = make_batch(10, 700 + step);
    const auto ra = one.step(ctx1, batch, opt_a);
    const auto rb = four.step(ctx4, batch, opt_b);
    EXPECT_EQ(ra.live_replicas, rb.live_replicas);
    EXPECT_DOUBLE_EQ(ra.loss, rb.loss);
  }
  for (int r = 0; r < 3; ++r) {
    expect_params_bitwise_equal(one.replica(r), four.replica(r));
  }
  // The rejoiner is back and bit-identical to the survivors (its
  // per-replica codec state was reset at the resync fence, identically in
  // both runs).
  expect_params_bitwise_equal(one.replica(0), one.replica(1));
  expect_params_bitwise_equal(one.replica(0), one.replica(2));
}

// ---------------------------------------------------------------------------
// Exchange semantics through the shared path.

TEST(ExchangeGradients, DenseIsBitwiseTheReferenceWeightedAverage) {
  // The dense codec must reproduce the pre-codec exchange exactly: a
  // per-element double accumulation over replicas in rank order.
  exec::ExecContext ctx(1);
  graph::Network a = make_bnfree_net(11), b = make_bnfree_net(11);
  fill_grads(a, 300);
  fill_grads(b, 301);

  // Hand-rolled reference before the exchange overwrites the inputs.
  auto pa = a.params();
  auto pb = b.params();
  std::vector<std::vector<float>> expected;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    std::vector<float> avg(static_cast<std::size_t>(pa[i]->grad.numel()));
    for (std::int64_t q = 0; q < pa[i]->grad.numel(); ++q) {
      double acc = 0;
      acc += 3.0 * static_cast<double>(pa[i]->grad.data()[q]);
      acc += 1.0 * static_cast<double>(pb[i]->grad.data()[q]);
      avg[static_cast<std::size_t>(q)] = static_cast<float>(acc / 4.0);
    }
    expected.push_back(std::move(avg));
  }

  DenseCodec codec;
  codec.bind(a, 2);
  std::vector<graph::Network*> nets{&a, &b};
  const ExchangeStats stats =
      exchange_gradients(codec, nets, {3.0, 1.0}, ctx);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t q = 0; q < pa[i]->grad.numel(); ++q) {
      ASSERT_EQ(pa[i]->grad.data()[q], expected[i][static_cast<std::size_t>(q)]);
      ASSERT_EQ(pb[i]->grad.data()[q], expected[i][static_cast<std::size_t>(q)]);
    }
  }
  // Dense ships the full FP32 payload plus an 8-byte header per tensor.
  EXPECT_DOUBLE_EQ(stats.wire_bytes,
                   stats.dense_bytes + 8.0 * static_cast<double>(pa.size()));
}

TEST(ExchangeGradients, UnboundOrStaleCodecFailsLoudly) {
  exec::ExecContext ctx(1);
  graph::Network a = make_bnfree_net(12), b = make_bnfree_net(12);
  std::vector<graph::Network*> nets{&a, &b};
  DenseCodec codec;  // never bound
  EXPECT_THROW(
      exchange_gradients(codec, nets, {1.0, 1.0}, ctx),
      std::logic_error);
}

// ---------------------------------------------------------------------------
// twobit specifics.

TEST(TwoBitCodec, ResidualCarriesTheQuantizationError) {
  graph::Network net = make_bnfree_net(13);
  fill_grads(net, 400);
  TwoBitCodec codec;
  codec.bind(net, 1);
  auto params = net.params();
  exec::ExecContext ctx(1);
  const std::int64_t n = params[0]->grad.numel();
  const std::vector<float> grad(params[0]->grad.data(),
                                params[0]->grad.data() + n);

  const WireTensor wire = codec.encode(0, 0, params[0]->grad.data(), n, ctx);
  std::vector<float> decoded(static_cast<std::size_t>(n));
  codec.decode(wire, 0, decoded.data(), ctx);

  // Every decoded value is one of {-s, 0, +s}; the residual is exactly the
  // error the next step will re-feed.
  const auto& res = codec.residual(0, 0);
  ASSERT_EQ(res.size(), static_cast<std::size_t>(n));
  for (std::int64_t q = 0; q < n; ++q) {
    const float d = decoded[static_cast<std::size_t>(q)];
    EXPECT_TRUE(d == 0.f || d == wire.scale || d == -wire.scale);
    EXPECT_FLOAT_EQ(res[static_cast<std::size_t>(q)],
                    grad[static_cast<std::size_t>(q)] - d);
  }
  // ~16x: 2 bits per element plus a scale word and a small header.
  EXPECT_LT(wire.wire_bytes, static_cast<double>(n) * 4.0 / 8.0);
}

TEST(TwoBitCodec, ResetReplicaDropsItsResidual) {
  graph::Network net = make_bnfree_net(13);
  fill_grads(net, 401);
  TwoBitCodec codec;
  codec.bind(net, 2);
  auto params = net.params();
  exec::ExecContext ctx(1);
  codec.encode(1, 0, params[0]->grad.data(), params[0]->grad.numel(), ctx);
  bool any_nonzero = false;
  for (float v : codec.residual(1, 0)) any_nonzero |= (v != 0.f);
  EXPECT_TRUE(any_nonzero);
  codec.reset_replica(1);
  for (float v : codec.residual(1, 0)) EXPECT_EQ(v, 0.f);
}

TEST(TwoBitCodec, RejectsForeignStateItems) {
  TwoBitCodec codec;
  StateItem item;
  item.name = "bogus/state";
  item.f32 = {1.f};
  EXPECT_THROW(codec.load_state({item}), std::invalid_argument);
}

TEST(TwoBitCodec, ConvergenceTracksDenseWithinTolerance) {
  // The ablation that keeps compression honest: 2-replica training with
  // twobit + error feedback must follow the dense loss trajectory, not
  // just shrink bytes.
  exec::ExecContext ctx(1);
  auto run = [&](const std::string& codec_name) {
    std::vector<graph::Network> nets;
    for (int i = 0; i < 2; ++i) nets.push_back(make_bnfree_net(21));
    cost::CommSpec spec;
    spec.gpus = 2;
    ElasticCluster c(std::move(nets), spec);
    c.set_codec(CodecRegistry::global().create(codec_name));
    optim::SGD opt(0.05f, 0.9f);
    double first = 0, last = 0;
    for (int step = 0; step < 40; ++step) {
      const auto r =
          c.step(ctx, make_batch(16, 900 + step), opt);
      if (step == 0) first = r.loss;
      last = r.loss;
    }
    return std::pair<double, double>(first, last);
  };
  const auto [dense_first, dense_last] = run("dense");
  const auto [twobit_first, twobit_last] = run("twobit");
  EXPECT_DOUBLE_EQ(dense_first, twobit_first);  // divergence starts at step 1
  EXPECT_LT(dense_last, dense_first);
  EXPECT_LT(twobit_last, twobit_first);  // it learns
  // Within tolerance of the dense trajectory.
  EXPECT_LT(std::abs(twobit_last - dense_last) / dense_last, 0.5);
}

// ---------------------------------------------------------------------------
// live_channel specifics.

TEST(LiveChannelCodec, TransmitsOnlyLiveRowsAndZeroFillsDeadOnes) {
  graph::Network net = make_bnfree_net(14);
  auto params = net.params();
  // params[0] is the conv weight [6, 2, 3, 3]; kill channels 1 and 4.
  Tensor& w = params[0]->value;
  const std::int64_t row_len = w.numel() / 6;
  for (std::int64_t c : {1, 4}) {
    std::fill(w.data() + c * row_len, w.data() + (c + 1) * row_len, 0.f);
  }
  LiveChannelCodec codec;
  codec.bind(net, 1);
  EXPECT_EQ(codec.live_rows(0).size(), 4u);
  EXPECT_LT(codec.live_fraction(), 1.0);

  fill_grads(net, 500);
  exec::ExecContext ctx(1);
  const std::int64_t n = params[0]->grad.numel();
  const WireTensor wire = codec.encode(0, 0, params[0]->grad.data(), n, ctx);
  EXPECT_EQ(wire.rows.size(), 4u);
  EXPECT_LT(wire.wire_bytes, static_cast<double>(n) * 4.0);

  std::vector<float> out(static_cast<std::size_t>(n), -1.f);
  codec.decode(wire, 0, out.data(), ctx);
  for (std::int64_t c : {1, 4}) {
    for (std::int64_t q = c * row_len; q < (c + 1) * row_len; ++q) {
      EXPECT_EQ(out[static_cast<std::size_t>(q)], 0.f) << "dead row " << c;
    }
  }
  // Live rows pass through bit-for-bit.
  for (std::int64_t c : {0, 2, 3, 5}) {
    for (std::int64_t q = c * row_len; q < (c + 1) * row_len; ++q) {
      EXPECT_EQ(out[static_cast<std::size_t>(q)],
                params[0]->grad.data()[q]);
    }
  }
}

TEST(LiveChannelCodec, RebindRecompactsAfterMoreChannelsDie) {
  graph::Network net = make_bnfree_net(15);
  LiveChannelCodec codec;
  codec.bind(net, 1);
  EXPECT_EQ(codec.live_rows(0).size(), 6u);
  const double full = codec.live_fraction();

  auto params = net.params();
  Tensor& w = params[0]->value;
  const std::int64_t row_len = w.numel() / 6;
  std::fill(w.data() + 2 * row_len, w.data() + 3 * row_len, 0.f);
  codec.bind(net, 1);  // the post-reconfiguration rebind
  EXPECT_EQ(codec.live_rows(0).size(), 5u);
  EXPECT_LT(codec.live_fraction(), full);
}

TEST(LiveChannelCodec, FullyLiveMaskMatchesDenseExchangeBitwise) {
  // With nothing pruned, compaction is the identity: the live_channel
  // exchange must equal the dense exchange bit for bit.
  graph::Network a = make_bnfree_net(16), b = make_bnfree_net(16);
  graph::Network c = make_bnfree_net(16), d = make_bnfree_net(16);
  exec::ExecContext ctx(1);
  fill_grads(a, 600);
  fill_grads(b, 601);
  fill_grads(c, 600);
  fill_grads(d, 601);

  LiveChannelCodec live;
  live.bind(a, 2);
  std::vector<graph::Network*> nets_live{&a, &b};
  exchange_gradients(live, nets_live, {1.0, 2.0}, ctx);

  DenseCodec dense;
  dense.bind(c, 2);
  std::vector<graph::Network*> nets_dense{&c, &d};
  exchange_gradients(dense, nets_dense, {1.0, 2.0}, ctx);

  expect_grads_bitwise_equal(a, c);
  expect_grads_bitwise_equal(b, d);
}

// ---------------------------------------------------------------------------
// Cluster accounting at compressed volume.

TEST(Cluster, UpdateBytesShrinkWithTheCodec) {
  auto build = [&](const std::string& name) {
    std::vector<graph::Network> nets;
    for (int i = 0; i < 2; ++i) nets.push_back(make_bnfree_net(42));
    cost::CommSpec spec;
    spec.gpus = 2;
    ElasticCluster c(std::move(nets), spec);
    c.set_codec(CodecRegistry::global().create(name));
    return c;
  };
  ElasticCluster dense = build("dense");
  ElasticCluster twobit = build("twobit");
  EXPECT_GT(dense.update_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(twobit.update_bytes(), dense.update_bytes() * 2.0 / 32.0);
}

// ---------------------------------------------------------------------------
// Trainer-level: checkpointed codec state, resume, and mismatch rejection.

data::SyntheticSpec codec_data() {
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

graph::Network codec_net() {
  models::ModelConfig mc;
  mc.image_h = 8;
  mc.image_w = 8;
  mc.classes = 8;
  mc.width_mult = 0.5f;
  mc.seed = 21;
  return models::build_resnet_basic(8, mc);
}

core::TrainConfig codec_cfg(const std::string& dir, const std::string& codec) {
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
  cfg.replicas = 2;
  cfg.codec = codec;
  return cfg;
}

class CodecTrainer : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecTrainer,
    ::testing::ValuesIn(CodecRegistry::global().names()));

TEST_P(CodecTrainer, MidPhaseResumeReplaysBitwise) {
  // The acceptance test for the codec checkpoint section: resuming from a
  // mid-phase checkpoint — residuals, live masks and all — must land on
  // the same bits as the uninterrupted run. The run straddles a
  // reconfiguration, so the resumed codec also re-binds over surgery.
  auto data = data::SyntheticImageDataset(codec_data());
  const fs::path dir_a = scratch_dir("resume_a_" + GetParam());
  const fs::path dir_b = scratch_dir("resume_b_" + GetParam());

  graph::Network net_full = codec_net();
  core::TrainConfig cfg = codec_cfg(dir_a.string(), GetParam());
  core::PruneTrainer full(net_full, data, cfg);
  const auto result_full = full.run();

  graph::Network net_resumed = codec_net();
  core::TrainConfig cfg_b = codec_cfg(dir_b.string(), GetParam());
  cfg_b.resume_from = (dir_a / "ckpt-epoch-2.bin").string();
  core::PruneTrainer resumed(net_resumed, data, cfg_b);
  const auto result_resumed = resumed.run();

  ASSERT_EQ(result_full.epochs.size(), result_resumed.epochs.size());
  EXPECT_DOUBLE_EQ(result_full.epochs.back().train_loss,
                   result_resumed.epochs.back().train_loss);
  EXPECT_DOUBLE_EQ(result_full.final_test_acc, result_resumed.final_test_acc);
  expect_params_bitwise_equal(net_full, net_resumed);
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

TEST(CodecTrainerMismatch, ResumeWithADifferentCodecFailsLoudly) {
  auto data = data::SyntheticImageDataset(codec_data());
  const fs::path dir = scratch_dir("mismatch");
  {
    graph::Network net = codec_net();
    core::TrainConfig cfg = codec_cfg(dir.string(), "twobit");
    cfg.epochs = 2;
    core::PruneTrainer trainer(net, data, cfg);
    trainer.run();
  }
  graph::Network net = codec_net();
  core::TrainConfig cfg = codec_cfg(dir.string(), "dense");
  cfg.epochs = 2;
  cfg.resume_from = (dir / "ckpt-latest.bin").string();
  try {
    core::PruneTrainer trainer(net, data, cfg);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("codec"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("twobit"), std::string::npos);
  }
  fs::remove_all(dir);
}

TEST(CodecTrainerMismatch, CheckpointCarriesTheCodecSection) {
  auto data = data::SyntheticImageDataset(codec_data());
  const fs::path dir = scratch_dir("section");
  {
    graph::Network net = codec_net();
    core::TrainConfig cfg = codec_cfg(dir.string(), "twobit");
    cfg.epochs = 2;
    core::PruneTrainer trainer(net, data, cfg);
    trainer.run();
  }
  ckpt::Checkpoint ck =
      ckpt::Checkpoint::load((dir / "ckpt-latest.bin").string());
  const std::vector<std::uint8_t>* section = ck.section("codec");
  ASSERT_NE(section, nullptr);
  ckpt::ByteReader r(*section);
  EXPECT_EQ(r.get_string(), "twobit");
  EXPECT_GT(r.get<std::uint64_t>(), 0u);  // residual items present
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pt::dist
