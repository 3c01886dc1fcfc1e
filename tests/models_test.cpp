// Model builder tests: architectural invariants (conv counts, stage
// structure, shapes end-to-end), NetworkInfo annotations, width scaling,
// and trainability smoke checks.
#include <gtest/gtest.h>

#include "models/builders.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"

namespace pt::models {
namespace {

ModelConfig tiny_cfg() {
  ModelConfig cfg;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.classes = 5;
  cfg.width_mult = 0.25f;
  return cfg;
}

TEST(Scaled, RoundsAndClamps) {
  EXPECT_EQ(scaled(64, 1.0f), 64);
  EXPECT_EQ(scaled(64, 0.5f), 32);
  EXPECT_EQ(scaled(64, 0.26f), 17);
  EXPECT_EQ(scaled(16, 0.01f), 2);  // clamped
}

struct DepthCase {
  int depth;
  std::int64_t expected_convs;  // depth-1 path convs + projection shortcuts + stem
};

class ResNetBasicTest : public ::testing::TestWithParam<int> {};

TEST_P(ResNetBasicTest, ConvAndBlockCounts) {
  const int depth = GetParam();
  auto net = build_resnet_basic(depth, tiny_cfg());
  const int n = (depth - 2) / 6;
  // Blocks: 3 stages x n; path convs: 2 per block; stem: 1; projection
  // shortcuts: 2 (at the two stage transitions).
  EXPECT_EQ(static_cast<int>(net.info.blocks.size()), 3 * n);
  EXPECT_EQ(count_conv_layers(net), 1 + 2 * 3 * n + 2);
  EXPECT_GE(net.info.first_conv, 0);
  EXPECT_GE(net.info.classifier, 0);
}

INSTANTIATE_TEST_SUITE_P(Depths, ResNetBasicTest, ::testing::Values(8, 20, 32, 56));

TEST(ResNetBasic, RejectsBadDepth) {
  EXPECT_THROW(build_resnet_basic(21, tiny_cfg()), std::invalid_argument);
  EXPECT_THROW(build_resnet_basic(6, tiny_cfg()), std::invalid_argument);
}

TEST(ResNetBasic, ForwardShape) {
  exec::ExecContext ctx(1);
  auto cfg = tiny_cfg();
  auto net = build_resnet_basic(20, cfg);
  Rng rng(1);
  Tensor x = Tensor::randn({2, 3, cfg.image_h, cfg.image_w}, rng);
  Tensor y = net.forward(ctx, x, false);
  EXPECT_EQ(y.shape(), (Shape{2, cfg.classes}));
}

TEST(ResNetBasic, BlockInfoConsistent) {
  auto net = build_resnet_basic(20, tiny_cfg());
  for (const auto& blk : net.info.blocks) {
    EXPECT_EQ(blk.path_convs.size(), 2u);
    EXPECT_EQ(blk.path_nodes.size(), 5u);
    EXPECT_GE(blk.add_node, 0);
    // Projection shortcut implies recorded conv node.
    if (!blk.shortcut_nodes.empty()) {
      EXPECT_EQ(blk.shortcut_nodes.size(), 2u);
      EXPECT_EQ(blk.shortcut_conv, blk.shortcut_nodes[0]);
    }
    // The add node consumes the last path node's output.
    EXPECT_EQ(net.node(blk.add_node).inputs[0], blk.path_nodes.back());
  }
}

TEST(ResNet50, StructureAndShape) {
  exec::ExecContext ctx(1);
  auto cfg = tiny_cfg();
  cfg.width_mult = 0.1f;
  auto net = build_resnet50(cfg, false);
  // 16 bottleneck blocks: {3,4,6,3}.
  EXPECT_EQ(net.info.blocks.size(), 16u);
  // Convs: stem 1 + 3 per block x16 + 4 projection shortcuts = 53.
  EXPECT_EQ(count_conv_layers(net), 1 + 48 + 4);
  Rng rng(2);
  Tensor x = Tensor::randn({1, 3, 8, 8}, rng);
  EXPECT_EQ(net.forward(ctx, x, false).shape(), (Shape{1, cfg.classes}));
}

TEST(ResNet50, BottleneckBlockInfo) {
  auto cfg = tiny_cfg();
  cfg.width_mult = 0.1f;
  auto net = build_resnet50(cfg, false);
  for (const auto& blk : net.info.blocks) {
    EXPECT_EQ(blk.path_convs.size(), 3u);
    EXPECT_EQ(blk.path_nodes.size(), 8u);
  }
  // First block of every stage has a projection (channel expansion).
  int projections = 0;
  for (const auto& blk : net.info.blocks) {
    if (blk.shortcut_conv >= 0) ++projections;
  }
  EXPECT_EQ(projections, 4);
}

TEST(ResNet50, ImageNetStemDownsamples) {
  exec::ExecContext ctx(1);
  ModelConfig cfg;
  cfg.image_h = 32;
  cfg.image_w = 32;
  cfg.classes = 10;
  cfg.width_mult = 0.1f;
  auto net = build_resnet50(cfg, /*imagenet_stem=*/true);
  Rng rng(3);
  Tensor x = Tensor::randn({1, 3, 32, 32}, rng);
  EXPECT_EQ(net.forward(ctx, x, false).shape(), (Shape{1, 10}));
}

TEST(Vgg, ConvCounts) {
  auto cfg = tiny_cfg();
  auto v11 = build_vgg(11, cfg);
  auto v13 = build_vgg(13, cfg);
  EXPECT_EQ(count_conv_layers(v11), 8);
  EXPECT_EQ(count_conv_layers(v13), 10);
  EXPECT_TRUE(v11.info.blocks.empty());  // no residual structure
  EXPECT_THROW(build_vgg(16, cfg), std::invalid_argument);
}

TEST(Vgg, ForwardShapeSmallInput) {
  exec::ExecContext ctx(1);
  auto cfg = tiny_cfg();  // 8x8 input: only 3 pools possible
  auto net = build_vgg(11, cfg);
  Rng rng(4);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  EXPECT_EQ(net.forward(ctx, x, false).shape(), (Shape{2, cfg.classes}));
}

TEST(BuildByName, DispatchesAll) {
  auto cfg = tiny_cfg();
  cfg.width_mult = 0.1f;
  for (const char* name :
       {"resnet20", "resnet32", "resnet50", "resnet56", "vgg11", "vgg13"}) {
    auto net = build_by_name(name, cfg);
    EXPECT_GT(net.num_params(), 0) << name;
  }
  EXPECT_THROW(build_by_name("alexnet", cfg), std::invalid_argument);
}

TEST(Builders, DeterministicInitPerSeed) {
  auto cfg = tiny_cfg();
  auto a = build_resnet_basic(20, cfg);
  auto b = build_resnet_basic(20, cfg);
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t q = 0; q < pa[i]->value.numel(); ++q) {
      ASSERT_EQ(pa[i]->value.data()[q], pb[i]->value.data()[q]);
    }
  }
}

TEST(Builders, WidthMultScalesParams) {
  auto cfg = tiny_cfg();
  cfg.width_mult = 0.25f;
  auto small = build_resnet_basic(20, cfg);
  cfg.width_mult = 0.5f;
  auto large = build_resnet_basic(20, cfg);
  EXPECT_GT(large.num_params(), 2 * small.num_params());
}

TEST(Builders, OneTrainingStepReducesLoss) {
  // Integration smoke: a few SGD steps on one batch should reduce loss.
  exec::ExecContext ctx(1);
  auto cfg = tiny_cfg();
  auto net = build_resnet_basic(8, cfg);
  Rng rng(5);
  Tensor x = Tensor::randn({8, 3, 8, 8}, rng);
  std::vector<std::int64_t> labels;
  for (int i = 0; i < 8; ++i) labels.push_back(i % cfg.classes);
  nn::SoftmaxCrossEntropy loss_fn;
  double first_loss = 0, last_loss = 0;
  for (int step = 0; step < 12; ++step) {
    Tensor out = net.forward(ctx, x, true);
    const double l = loss_fn.forward(out, labels);
    if (step == 0) first_loss = l;
    last_loss = l;
    net.zero_grad();
    net.backward(ctx, loss_fn.backward());
    for (nn::Param* p : net.params()) {
      for (std::int64_t q = 0; q < p->value.numel(); ++q) {
        p->value.data()[q] -= 0.1f * p->grad.data()[q];
      }
    }
  }
  EXPECT_LT(last_loss, first_loss);
}

}  // namespace
}  // namespace pt::models
