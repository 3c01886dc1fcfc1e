// Cost-model tests: exact FLOP formulas for known layers, shape inference
// through residual graphs, memory-context accounting and the max-batch
// search, roofline monotonicity, and allreduce algebra.
#include <gtest/gtest.h>

#include "cost/comm.h"
#include "cost/device.h"
#include "cost/flops.h"
#include "cost/memory.h"
#include "models/builders.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pool.h"

namespace pt::cost {
namespace {

models::ModelConfig tiny_cfg() {
  models::ModelConfig cfg;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.classes = 4;
  cfg.width_mult = 0.25f;
  return cfg;
}

TEST(InferShapes, PropagatesThroughResNet) {
  auto cfg = tiny_cfg();
  auto net = models::build_resnet_basic(20, cfg);
  const auto shapes = infer_shapes(net, Shape{2, 3, 8, 8});
  EXPECT_EQ(shapes[static_cast<std::size_t>(net.output())], (Shape{2, 4}));
  // Stem conv output: [2, 4, 8, 8] at width 0.25 (16 -> 4).
  EXPECT_EQ(shapes[static_cast<std::size_t>(net.info.first_conv)],
            (Shape{2, 4, 8, 8}));
}

TEST(FlopsModel, ConvFormulaExact) {
  // Single conv network: FLOPs must equal 2*K*C*R*S*Ho*Wo.
  graph::Network net;
  Rng rng(1);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(3, 8, 3, 1, 1, rng);
  const int c = net.add_layer(conv, input);
  net.set_output(c);
  FlopsModel fm(net, {3, 10, 10});
  EXPECT_DOUBLE_EQ(fm.inference_flops(), 2.0 * 8 * 3 * 3 * 3 * 10 * 10);
  // Training = 3x inference for a conv (dW + dX each cost one GEMM).
  EXPECT_DOUBLE_EQ(fm.training_flops(), 3.0 * fm.inference_flops());
}

TEST(FlopsModel, StridedConvUsesOutputExtent) {
  graph::Network net;
  Rng rng(2);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(4, 4, 3, 2, 1, rng);
  net.set_output(net.add_layer(conv, input));
  FlopsModel fm(net, {4, 8, 8});
  EXPECT_DOUBLE_EQ(fm.inference_flops(), 2.0 * 4 * 4 * 3 * 3 * 4 * 4);
}

TEST(FlopsModel, LinearFormulaExact) {
  graph::Network net;
  Rng rng(3);
  const int input = net.add_input();
  auto gap = std::make_shared<nn::GlobalAvgPool>();
  const int g = net.add_layer(gap, input);
  auto fc = std::make_shared<nn::Linear>(16, 10, rng);
  net.set_output(net.add_layer(fc, g));
  FlopsModel fm(net, {16, 4, 4});
  // GAP: 16*4*4 FLOPs; FC: 2*16*10.
  EXPECT_DOUBLE_EQ(fm.inference_flops(), 16 * 4 * 4 + 2.0 * 16 * 10);
}

TEST(FlopsModel, PrunedModelCostsLess) {
  auto cfg = tiny_cfg();
  auto net = models::build_resnet_basic(20, cfg);
  FlopsModel before(net, {3, 8, 8});
  // Shrink one conv by hand.
  const auto convs = net.nodes_of_type<nn::Conv2d>();
  auto& conv = net.layer_as<nn::Conv2d>(convs[1]);
  std::vector<std::int64_t> keep_in, keep_out;
  for (std::int64_t i = 0; i < conv.in_channels(); ++i) keep_in.push_back(i);
  for (std::int64_t i = 0; i < conv.out_channels() / 2; ++i) keep_out.push_back(i);
  // Also shrink whatever consumes it, to keep the graph consistent? Not
  // needed for the FLOPs model itself; use a fresh single-layer graph.
  graph::Network single;
  Rng rng(4);
  const int input = single.add_input();
  auto c2 = std::make_shared<nn::Conv2d>(8, 8, 3, 1, 1, rng);
  const int cid = single.add_layer(c2, input);
  single.set_output(cid);
  FlopsModel fa(single, {8, 8, 8});
  single.layer_as<nn::Conv2d>(cid).shrink({0, 1, 2, 3}, {0, 1, 2, 3});
  FlopsModel fb(single, {8, 8, 8});
  EXPECT_DOUBLE_EQ(fb.inference_flops(), fa.inference_flops() / 4.0);
  (void)before;
}

TEST(FlopsModel, LayerBreakdownSumsToTotal) {
  auto net = models::build_resnet_basic(20, tiny_cfg());
  FlopsModel fm(net, {3, 8, 8});
  double fwd = 0, bwd = 0;
  for (const auto& l : fm.layers()) {
    fwd += l.forward;
    bwd += l.backward;
  }
  EXPECT_DOUBLE_EQ(fwd, fm.inference_flops());
  EXPECT_DOUBLE_EQ(fwd + bwd, fm.training_flops());
}

TEST(MemoryModel, ActivationsScaleWithBatch) {
  auto net = models::build_resnet_basic(20, tiny_cfg());
  MemoryModel mm(net, {3, 8, 8});
  // The conv workspace grows with the lowering block until the batch
  // covers every layer's block (32 samples at the 2x2 stage), then stays.
  auto rest = [&](std::int64_t batch) {
    return mm.training_bytes(batch) - mm.workspace_bytes(batch);
  };
  const double b1 = rest(1);
  const double b2 = rest(2);
  const double b4 = rest(4);
  // Per-sample increments are exactly linear in activations.
  EXPECT_DOUBLE_EQ(b4 - b2, 2.0 * (b2 - b1));
  EXPECT_DOUBLE_EQ(b2 - b1, mm.breakdown().activations_per_sample);
  EXPECT_LE(mm.workspace_bytes(1), mm.workspace_bytes(4));
  EXPECT_DOUBLE_EQ(mm.workspace_bytes(32), mm.workspace_bytes(512));
  EXPECT_GT(mm.breakdown().parameters, 0);
  EXPECT_DOUBLE_EQ(mm.breakdown().optimizer_state, 2 * mm.breakdown().parameters);
}

TEST(MemoryModel, MaxBatchRespectsCapacity) {
  auto net = models::build_resnet_basic(20, tiny_cfg());
  MemoryModel mm(net, {3, 8, 8});
  const double cap = mm.training_bytes(64) + 1.0;
  const std::int64_t b = mm.max_batch(cap, 16, 512);
  EXPECT_EQ(b, 64);
  // Tiny capacity still returns the granularity floor.
  EXPECT_EQ(mm.max_batch(1.0, 16, 512), 16);
  // Huge capacity clamps at max_batch.
  EXPECT_EQ(mm.max_batch(1e18, 16, 128), 128);
}

TEST(MemoryModel, BnTrafficCountsOnlyBnLayers) {
  graph::Network net;
  Rng rng(5);
  const int input = net.add_input();
  auto conv = std::make_shared<nn::Conv2d>(2, 4, 3, 1, 1, rng);
  const int c = net.add_layer(conv, input);
  auto bn = std::make_shared<nn::BatchNorm2d>(4);
  const int b = net.add_layer(bn, c);
  net.set_output(b);
  MemoryModel mm(net, {2, 6, 6});
  // BN input is [1, 4, 6, 6] = 144 elements; 7 passes * 4 bytes.
  EXPECT_DOUBLE_EQ(mm.bn_traffic_per_sample(), 7.0 * 144 * 4);
}

TEST(MemoryModel, PrunedModelNeedsLessMemory) {
  auto cfg = tiny_cfg();
  cfg.width_mult = 0.5f;
  auto big = models::build_resnet_basic(20, cfg);
  cfg.width_mult = 0.25f;
  auto small = models::build_resnet_basic(20, cfg);
  MemoryModel mb(big, {3, 8, 8});
  MemoryModel ms(small, {3, 8, 8});
  EXPECT_LT(ms.training_bytes(32), mb.training_bytes(32));
}

TEST(DeviceModel, MoreFlopsTakeLonger) {
  auto cfg = tiny_cfg();
  cfg.width_mult = 0.5f;
  auto big = models::build_resnet_basic(20, cfg);
  cfg.width_mult = 0.25f;
  auto small = models::build_resnet_basic(20, cfg);
  DeviceModel dev(DeviceSpec::titan_xp());
  EXPECT_GT(dev.training_time(big, {3, 8, 8}, 32),
            dev.training_time(small, {3, 8, 8}, 32));
}

TEST(DeviceModel, UtilizationPenalizesSmallLayers) {
  // Halving FLOPs must NOT halve modeled time (reduced parallelism lowers
  // utilization) — the paper's central measured-vs-FLOPs gap.
  graph::Network a, b;
  Rng rng(6);
  const int ia = a.add_input();
  a.set_output(a.add_layer(std::make_shared<nn::Conv2d>(32, 32, 3, 1, 1, rng), ia));
  const int ib = b.add_input();
  b.set_output(b.add_layer(std::make_shared<nn::Conv2d>(32, 16, 3, 1, 1, rng), ib));
  DeviceModel dev(DeviceSpec::titan_xp());
  const double ta = dev.training_time(a, {32, 8, 8}, 16);
  const double tb = dev.training_time(b, {32, 8, 8}, 16);
  EXPECT_LT(tb, ta);
  EXPECT_GT(tb, ta / 2.0);  // speedup < FLOPs saving
}

TEST(DeviceModel, V100FasterThan1080Ti) {
  auto net = models::build_resnet_basic(20, tiny_cfg());
  DeviceModel v100(DeviceSpec::v100());
  DeviceModel ti(DeviceSpec::gtx_1080ti());
  EXPECT_LT(v100.training_time(net, {3, 8, 8}, 32),
            ti.training_time(net, {3, 8, 8}, 32));
}

TEST(DeviceModel, TrainingCostsMoreThanInference) {
  auto net = models::build_resnet_basic(20, tiny_cfg());
  DeviceModel dev(DeviceSpec::titan_xp());
  EXPECT_GT(dev.training_time(net, {3, 8, 8}, 32),
            dev.inference_time(net, {3, 8, 8}, 32));
}

namespace {
CommQuery query(double bytes, int members = 0, CommCodec codec = CommCodec::kDense,
                double live = 1.0, std::int64_t updates = 1) {
  CommQuery q;
  q.model_bytes = bytes;
  q.members = members;
  q.codec = codec;
  q.live_fraction = live;
  q.updates = updates;
  return q;
}
}  // namespace

TEST(CommModel, RingBytesFormula) {
  CommSpec spec;
  spec.gpus = 4;
  CommModel cm(spec);
  EXPECT_DOUBLE_EQ(cm.cost(query(100.0)).wire_bytes, 2.0 * 3.0 / 4.0 * 100.0);
  CommSpec one;
  one.gpus = 1;
  EXPECT_DOUBLE_EQ(CommModel(one).cost(query(100.0)).wire_bytes, 0.0);
}

TEST(CommModel, TimeScalesWithBytesAndLatency) {
  CommSpec spec;
  spec.gpus = 4;
  spec.link_bandwidth = 1e9;
  spec.latency = 1e-6;
  CommModel cm(spec);
  const double t1 = cm.cost(query(1e6)).ring_time;
  const double t2 = cm.cost(query(2e6)).ring_time;
  EXPECT_GT(t2, t1);
  EXPECT_LT(t2, 2 * t1);  // latency term does not scale
}

TEST(CommModel, HierarchicalBeatsFlatRingAtScale) {
  CommSpec spec;
  spec.gpus = 16;
  spec.hierarchy_group = 4;
  spec.link_bandwidth = 10e9;
  spec.latency = 10e-6;
  CommModel cm(spec);
  // With non-trivial latency, the two-level reduction wins for small
  // buffers (fewer serialized hops).
  const CommCost c = cm.cost(query(1e5));
  EXPECT_LT(c.hierarchical_time, c.ring_time);
}

TEST(CommModel, CostScalesWithUpdates) {
  CommSpec spec;
  spec.gpus = 4;
  CommModel cm(spec);
  EXPECT_DOUBLE_EQ(cm.cost(query(100.0, 0, CommCodec::kDense, 1.0, 10)).wire_bytes,
                   10 * cm.cost(query(100.0)).wire_bytes);
  EXPECT_DOUBLE_EQ(
      cm.cost(query(1e6, 0, CommCodec::kDense, 1.0, 8)).hierarchical_time,
      8 * cm.cost(query(1e6)).hierarchical_time);
}

TEST(CommModel, MemberCountsHandleDegenerateRings) {
  CommSpec spec;
  spec.gpus = 4;
  spec.link_bandwidth = 1e9;
  spec.latency = 1e-6;
  CommModel cm(spec);

  // A "ring" of one exchanges nothing — no bytes, no time.
  EXPECT_DOUBLE_EQ(cm.cost(query(1e6, 1)).wire_bytes, 0.0);
  EXPECT_DOUBLE_EQ(cm.cost(query(1e6, 1)).ring_time, 0.0);
  EXPECT_DOUBLE_EQ(cm.cost(query(1e6, 1)).hierarchical_time, 0.0);

  // Two members is an honest full exchange (2*(P-1)/P = 1x model bytes,
  // two pipeline steps of a half-model chunk) — not a free lunch and not a
  // 4-GPU ring either.
  EXPECT_DOUBLE_EQ(cm.cost(query(1e6, 2)).wire_bytes, 1e6);
  EXPECT_DOUBLE_EQ(cm.cost(query(1e6, 2)).ring_time,
                   2.0 * (spec.latency + 1e6 / 2.0 / spec.link_bandwidth));

  // members = 0 means "the spec's own GPU count".
  EXPECT_DOUBLE_EQ(cm.cost(query(1e6, 4)).wire_bytes,
                   cm.cost(query(1e6)).wire_bytes);
  EXPECT_DOUBLE_EQ(cm.cost(query(1e6, 4)).ring_time,
                   cm.cost(query(1e6)).ring_time);
  EXPECT_DOUBLE_EQ(cm.cost(query(1e6, 4)).hierarchical_time,
                   cm.cost(query(1e6)).hierarchical_time);

  // Fewer live members than the configured ring must cost less.
  EXPECT_LT(cm.cost(query(1e6, 3)).wire_bytes, cm.cost(query(1e6, 4)).wire_bytes);
  EXPECT_LT(cm.cost(query(1e6, 2)).ring_time, cm.cost(query(1e6, 4)).ring_time);
}

TEST(CommModel, HierarchicalClampsGroupToLiveMembers) {
  CommSpec spec;
  spec.gpus = 16;
  spec.hierarchy_group = 8;
  spec.link_bandwidth = 10e9;
  spec.latency = 10e-6;
  CommModel cm(spec);
  // With only 3 live members the intra-group ring runs at 3, not 8: the
  // modeled time must match a flat spec of that size, and shrink further
  // as membership shrinks.
  EXPECT_GT(cm.cost(query(1e6, 3)).hierarchical_time, 0.0);
  EXPECT_LT(cm.cost(query(1e6, 3)).hierarchical_time,
            cm.cost(query(1e6, 16)).hierarchical_time);
  EXPECT_LT(cm.cost(query(1e6, 2)).hierarchical_time,
            cm.cost(query(1e6, 3)).hierarchical_time);
}

TEST(CommModel, CompressionFactorsMultiplyIntoVolume) {
  // Fig. 11's multiplicative framing: pruning (live fraction), batch
  // growth (fewer updates), and quantization each scale the same wire
  // volume, independently.
  EXPECT_DOUBLE_EQ(CommModel::compression_factor(CommCodec::kDense, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(CommModel::compression_factor(CommCodec::kTwoBit, 0.3),
                   2.0 / 32.0);
  EXPECT_DOUBLE_EQ(
      CommModel::compression_factor(CommCodec::kLiveChannel, 0.3), 0.3);
  // Out-of-range live fractions clamp instead of inflating the volume.
  EXPECT_DOUBLE_EQ(
      CommModel::compression_factor(CommCodec::kLiveChannel, 1.7), 1.0);

  CommSpec spec;
  spec.gpus = 4;
  CommModel cm(spec);
  const double dense = cm.cost(query(1e6)).wire_bytes;
  const double twobit =
      cm.cost(query(1e6, 0, CommCodec::kTwoBit)).wire_bytes;
  const double live =
      cm.cost(query(1e6, 0, CommCodec::kLiveChannel, 0.25)).wire_bytes;
  EXPECT_DOUBLE_EQ(twobit, dense * 2.0 / 32.0);
  EXPECT_DOUBLE_EQ(live, dense * 0.25);
  // Compression shrinks time as well as bytes (latency term survives).
  EXPECT_LT(cm.cost(query(1e6, 0, CommCodec::kTwoBit)).ring_time,
            cm.cost(query(1e6)).ring_time);
}

TEST(DeviceSpecs, PresetsAreOrdered) {
  EXPECT_GT(DeviceSpec::v100().mem_bandwidth, DeviceSpec::gtx_1080ti().mem_bandwidth);
  EXPECT_GT(DeviceSpec::v100().peak_flops, DeviceSpec::cpu().peak_flops);
}

}  // namespace
}  // namespace pt::cost
