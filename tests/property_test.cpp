// Repository-wide property tests (parameterized sweeps):
//  - function preservation: randomly sparsified models compute identical
//    outputs before and after union reconfiguration, across architectures
//    and random seeds;
//  - idempotence: reconfiguring twice changes nothing the second time;
//  - cost-model consistency: the analytic union FLOPs (fig6 math) equal
//    the FlopsModel of the physically reconfigured network.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "cost/flops.h"
#include "models/builders.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "prune/channel_analysis.h"
#include "prune/reconfigure.h"

namespace pt {
namespace {

models::ModelConfig tiny_cfg() {
  models::ModelConfig cfg;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.classes = 5;
  cfg.width_mult = 0.5f;
  return cfg;
}

/// Randomly kills ~frac of each channel *variable*'s channels consistently:
/// the channel's weights are zeroed in every writer conv's out-group and
/// every reader conv's in-group, and every BN carrying the variable is
/// neutralized on that channel — so (a) the kill itself does not change the
/// network function, and (b) reconfiguration is guaranteed to prune the
/// killed channels exactly. Returns how many channels were killed.
std::int64_t kill_random_var_channels(graph::Network& net, double frac,
                                      std::uint64_t seed) {
  Rng rng(seed);
  // Threshold 0: we only need the variable *structure* here.
  const auto analysis = prune::analyze_channels(net, 0.f);
  std::int64_t killed = 0;
  for (std::size_t v = 0; v < analysis.vars.size(); ++v) {
    const auto& var = analysis.vars[v];
    if (var.dense_required || var.channels < 2) continue;
    if (var.writer_convs.empty()) continue;
    for (std::int64_t ch = 0; ch + 1 < var.channels; ++ch) {
      if (rng.uniform() >= frac) continue;
      for (int w : var.writer_convs) {
        auto& conv = net.layer_as<nn::Conv2d>(w);
        const std::int64_t len =
            conv.in_channels() * conv.kernel() * conv.kernel();
        float* p = conv.weight().value.data() + ch * len;
        for (std::int64_t q = 0; q < len; ++q) p[q] = 0.f;
      }
      for (int r : var.reader_convs) {
        auto& conv = net.layer_as<nn::Conv2d>(r);
        const std::int64_t rs = conv.kernel() * conv.kernel();
        for (std::int64_t k = 0; k < conv.out_channels(); ++k) {
          float* p =
              conv.weight().value.data() + (k * conv.in_channels() + ch) * rs;
          for (std::int64_t q = 0; q < rs; ++q) p[q] = 0.f;
        }
      }
      ++killed;
    }
  }
  // Neutralize every BN channel whose variable we touched: a killed
  // channel's BN input is all-zero, so (x - 0)/sqrt(1) * g + 0 == 0 keeps
  // the function identical. (Safe for live channels too only if their
  // stats were the defaults, so only neutralize channels that are now
  // weight-free in all writers.)
  for (int id : net.nodes_of_type<nn::BatchNorm2d>()) {
    auto& bn = net.layer_as<nn::BatchNorm2d>(id);
    const int v = analysis.var_of(net.node(id).inputs[0]);
    const auto& var = analysis.vars[std::size_t(v)];
    if (var.writer_convs.empty()) continue;
    for (std::int64_t ch = 0; ch < bn.channels(); ++ch) {
      bool dead_everywhere = true;
      for (int w : var.writer_convs) {
        const auto& conv = net.layer_as<nn::Conv2d>(w);
        if (conv.out_channel_max_abs(ch) > 0.f) dead_everywhere = false;
      }
      if (!dead_everywhere) continue;
      bn.beta().value.at(ch) = 0.f;
      bn.running_mean().at(ch) = 0.f;
      bn.running_var().at(ch) = 1.f;
    }
  }
  return killed;
}

struct PropertyCase {
  const char* model;
  std::uint64_t seed;
};

// Without a printer gtest dumps the struct's bytes, including the address of
// `model`, so the registered ctest names would change with every process.
void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << c.model << "_seed" << c.seed;
}

class FunctionPreservationTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(FunctionPreservationTest, UnionReconfigureIsExact) {
  exec::ExecContext ctx(1);
  const auto [model, seed] = GetParam();
  auto cfg = tiny_cfg();
  cfg.seed = seed;
  auto net = models::build_by_name(model, cfg);
  const std::int64_t killed = kill_random_var_channels(net, 0.3, seed * 7 + 1);

  Rng rng(seed);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor before = net.forward(ctx, x, false).clone();

  prune::Reconfigurer rec(net, 1e-4f);
  const auto stats = rec.reconfigure();
  if (killed > 0) {
    // Something must have been pruned or removed whenever kills happened
    // on both sides of some variable; at 30% kill rate this is certain.
    EXPECT_TRUE(stats.changed);
  }
  Tensor after = net.forward(ctx, x, false);
  ASSERT_EQ(before.shape(), after.shape());
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_NEAR(before.data()[i], after.data()[i],
                1e-3f * std::max(1.f, std::fabs(before.data()[i])))
        << model << " seed " << seed << " at " << i;
  }
}

TEST_P(FunctionPreservationTest, ReconfigureIsIdempotent) {
  const auto [model, seed] = GetParam();
  auto cfg = tiny_cfg();
  cfg.seed = seed;
  auto net = models::build_by_name(model, cfg);
  kill_random_var_channels(net, 0.3, seed + 13);
  prune::Reconfigurer rec(net, 1e-4f);
  rec.reconfigure();
  const auto second = rec.reconfigure();
  EXPECT_FALSE(second.changed) << model << " seed " << seed;
  EXPECT_EQ(second.channels_before, second.channels_after);
  EXPECT_EQ(second.blocks_removed, 0);
}

TEST_P(FunctionPreservationTest, AnalyticUnionFlopsMatchSurgery) {
  const auto [model, seed] = GetParam();
  auto cfg = tiny_cfg();
  cfg.seed = seed;
  auto net = models::build_by_name(model, cfg);
  kill_random_var_channels(net, 0.25, seed + 29);

  // Analytic conv FLOPs from the channel analysis (pre-surgery)...
  prune::Reconfigurer rec0(net, 1e-4f);
  rec0.zero_small_weights();
  const auto analysis = prune::analyze_channels(net, 1e-4f);
  const auto shapes = cost::infer_shapes(net, Shape{1, 3, 8, 8});
  double analytic = 0;
  for (int id : net.nodes_of_type<nn::Conv2d>()) {
    const auto& conv = net.layer_as<nn::Conv2d>(id);
    const auto& keep_in = analysis.keep_of(net.node(id).inputs[0]);
    const auto& keep_out = analysis.keep_of(id);
    const double in = keep_in.empty() ? double(conv.in_channels())
                                      : double(keep_in.size());
    const double out = keep_out.empty() ? double(conv.out_channels())
                                        : double(keep_out.size());
    const Shape& os = shapes[std::size_t(id)];
    analytic += 2.0 * in * out * conv.kernel() * conv.kernel() * os[2] * os[3];
  }

  // ...must equal the FlopsModel's conv total after physical surgery,
  // provided no whole branch is removed (branch removal changes the graph
  // beyond the per-conv keep-set arithmetic).
  prune::Reconfigurer rec(net, 1e-4f);
  const auto stats = rec.reconfigure();
  if (stats.blocks_removed > 0) GTEST_SKIP() << "branch removed; not comparable";
  cost::FlopsModel fm(net, {3, 8, 8});
  double surgery = 0;
  for (const auto& lf : fm.layers()) {
    if (lf.type == "Conv2d") surgery += lf.forward;
  }
  EXPECT_NEAR(surgery, analytic, 1e-6 * analytic) << model << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, FunctionPreservationTest,
    ::testing::Values(PropertyCase{"resnet8", 1}, PropertyCase{"resnet8", 2},
                      PropertyCase{"resnet20", 3}, PropertyCase{"resnet20", 4},
                      PropertyCase{"resnet50", 5}, PropertyCase{"vgg11", 6},
                      PropertyCase{"vgg13", 7}, PropertyCase{"resnet56", 8}));

}  // namespace
}  // namespace pt
