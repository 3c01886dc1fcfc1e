// Network DAG tests: execution order, residual adds, whole-network gradient
// checks, surgery (bypass_add), and consumer maps.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/network.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pool.h"

namespace pt::graph {
namespace {

/// Tiny residual net: stem conv -> [block: conv-bn | identity]-add -> gap -> fc.
Network make_tiny_resnet(Rng& rng, std::int64_t channels = 4) {
  Network net;
  const int input = net.add_input();
  auto stem = std::make_shared<nn::Conv2d>(2, channels, 3, 1, 1, rng);
  stem->set_name("stem");
  const int s = net.add_layer(stem, input);
  auto bn0 = std::make_shared<nn::BatchNorm2d>(channels);
  const int b0 = net.add_layer(bn0, s);
  auto relu0 = std::make_shared<nn::ReLU>();
  const int r0 = net.add_layer(relu0, b0);

  auto conv1 = std::make_shared<nn::Conv2d>(channels, channels, 3, 1, 1, rng);
  conv1->set_name("conv1");
  const int c1 = net.add_layer(conv1, r0);
  auto bn1 = std::make_shared<nn::BatchNorm2d>(channels);
  const int b1 = net.add_layer(bn1, c1);
  const int add = net.add_add(b1, r0);

  auto gap = std::make_shared<nn::GlobalAvgPool>();
  const int g = net.add_layer(gap, add);
  auto fc = std::make_shared<nn::Linear>(channels, 3, rng);
  const int f = net.add_layer(fc, g);
  net.set_output(f);
  net.info.first_conv = s;
  net.info.classifier = f;
  ResidualBlockInfo blk;
  blk.path_nodes = {c1, b1};
  blk.path_convs = {c1};
  blk.add_node = add;
  net.info.blocks.push_back(blk);
  return net;
}

TEST(Network, InputMustBeFirst) {
  Network net;
  net.add_input();
  EXPECT_THROW(net.add_input(), std::logic_error);
}

TEST(Network, ForwardShapes) {
  exec::ExecContext ctx(1);
  Rng rng(1);
  Network net = make_tiny_resnet(rng);
  Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  Tensor y = net.forward(ctx, x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 3}));
}

TEST(Network, AddRequiresMatchingShapes) {
  exec::ExecContext ctx(1);
  Rng rng(2);
  Network net;
  const int input = net.add_input();
  auto c1 = std::make_shared<nn::Conv2d>(1, 2, 1, 1, 0, rng);
  auto c2 = std::make_shared<nn::Conv2d>(1, 3, 1, 1, 0, rng);
  const int a = net.add_layer(c1, input);
  const int b = net.add_layer(c2, input);
  const int add = net.add_add(a, b);
  net.set_output(add);
  Tensor x({1, 1, 2, 2});
  EXPECT_THROW(net.forward(ctx, x, false), std::logic_error);
}

TEST(Network, ResidualAddIsElementwiseSum) {
  exec::ExecContext ctx(1);
  Rng rng(3);
  Network net;
  const int input = net.add_input();
  // Two parallel 1x1 convs with known weights, then add.
  auto c1 = std::make_shared<nn::Conv2d>(1, 1, 1, 1, 0, rng);
  auto c2 = std::make_shared<nn::Conv2d>(1, 1, 1, 1, 0, rng);
  c1->weight().value.fill(2.f);
  c2->weight().value.fill(3.f);
  const int a = net.add_layer(c1, input);
  const int b = net.add_layer(c2, input);
  const int add = net.add_add(a, b);
  net.set_output(add);
  Tensor x = Tensor::full({1, 1, 2, 2}, 1.f);
  Tensor y = net.forward(ctx, x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 5.f);
}

TEST(Network, WholeNetGradientCheck) {
  exec::ExecContext ctx(1);
  Rng rng(4);
  Network net = make_tiny_resnet(rng);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  std::vector<std::int64_t> labels = {0, 2};
  nn::SoftmaxCrossEntropy loss;

  // Training-mode forward so the FD surface matches what backward
  // differentiates (batch norm uses batch statistics in training).
  auto loss_of = [&](const Tensor& input) {
    Tensor out = net.forward(ctx, input, true);
    nn::SoftmaxCrossEntropy l;
    return l.forward(out, labels);
  };

  Tensor out = net.forward(ctx, x, true);
  loss.forward(out, labels);
  net.zero_grad();
  Tensor dx = net.backward(ctx, loss.backward());

  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < x.numel(); i += 7) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double lp = loss_of(x);
    x.data()[i] = orig - eps;
    const double lm = loss_of(x);
    x.data()[i] = orig;
    const double fd = (lp - lm) / (2 * eps);
    EXPECT_NEAR(dx.data()[i], fd, 3e-2 * std::max(1.0, std::fabs(fd)))
        << "at " << i;
  }
}

TEST(Network, ParamGradientCheckThroughResidual) {
  exec::ExecContext ctx(1);
  Rng rng(5);
  Network net = make_tiny_resnet(rng);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  std::vector<std::int64_t> labels = {1, 0};
  nn::SoftmaxCrossEntropy loss;
  Tensor out = net.forward(ctx, x, true);
  loss.forward(out, labels);
  net.zero_grad();
  net.backward(ctx, loss.backward());

  const float eps = 1e-2f;
  for (nn::Param* p : net.params()) {
    const std::int64_t stride = std::max<std::int64_t>(1, p->value.numel() / 16);
    for (std::int64_t i = 0; i < p->value.numel(); i += stride) {
      // Training-mode forward: the FD surface must include batch-norm's
      // batch statistics, which is what backward differentiates.
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      Tensor o1 = net.forward(ctx, x, true);
      nn::SoftmaxCrossEntropy l1;
      const double lp = l1.forward(o1, labels);
      p->value.data()[i] = orig - eps;
      Tensor o2 = net.forward(ctx, x, true);
      nn::SoftmaxCrossEntropy l2;
      const double lm = l2.forward(o2, labels);
      p->value.data()[i] = orig;
      const double fd = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p->grad.data()[i], fd, 4e-2 * std::max(0.5, std::fabs(fd)))
          << "param grad at " << i;
    }
  }
}

TEST(Network, BackwardWithoutTrainingForwardThrows) {
  exec::ExecContext ctx(1);
  Rng rng(6);
  Network net = make_tiny_resnet(rng);
  Tensor x = Tensor::randn({1, 2, 5, 5}, rng);
  net.forward(ctx, x, false);
  EXPECT_THROW(net.backward(ctx, Tensor({1, 3})), std::logic_error);
}

TEST(Network, BypassAddRewiresConsumersAndKillsNodes) {
  exec::ExecContext ctx(1);
  Rng rng(7);
  Network net = make_tiny_resnet(rng);
  const ResidualBlockInfo& blk = net.info.blocks[0];
  // Remove the residual path entirely: output should equal shortcut path.
  const int shortcut_src = net.node(blk.add_node).inputs[1];
  std::vector<int> dead = blk.path_nodes;
  net.bypass_add(blk.add_node, shortcut_src, dead);

  for (int id : dead) EXPECT_FALSE(net.is_live(id));
  EXPECT_FALSE(net.is_live(blk.add_node));

  Tensor x = Tensor::randn({1, 2, 5, 5}, rng);
  Tensor y = net.forward(ctx, x, false);  // must still run
  EXPECT_EQ(y.shape(), (Shape{1, 3}));
  // Conv1's params no longer appear.
  for (nn::Param* p : net.params()) {
    EXPECT_EQ(p->name.find("conv1"), std::string::npos);
  }
}

TEST(Network, BypassAddTrainingStillWorks) {
  exec::ExecContext ctx(1);
  Rng rng(8);
  Network net = make_tiny_resnet(rng);
  const ResidualBlockInfo& blk = net.info.blocks[0];
  const int shortcut_src = net.node(blk.add_node).inputs[1];
  net.bypass_add(blk.add_node, shortcut_src, blk.path_nodes);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  nn::SoftmaxCrossEntropy loss;
  Tensor out = net.forward(ctx, x, true);
  loss.forward(out, {0, 1});
  net.zero_grad();
  Tensor dx = net.backward(ctx, loss.backward());
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Network, ConsumerMap) {
  Rng rng(9);
  Network net = make_tiny_resnet(rng);
  auto consumers = net.consumer_map();
  // The stem ReLU output feeds both conv1 and the add (short-cut).
  const int r0 = 3;  // input=0, stem=1, bn=2, relu=3
  EXPECT_EQ(consumers[r0].size(), 2u);
}

TEST(Network, NumParamsCountsLiveOnly) {
  Rng rng(10);
  Network net = make_tiny_resnet(rng, 4);
  const std::int64_t before = net.num_params();
  const ResidualBlockInfo& blk = net.info.blocks[0];
  const int shortcut_src = net.node(blk.add_node).inputs[1];
  net.bypass_add(blk.add_node, shortcut_src, blk.path_nodes);
  EXPECT_LT(net.num_params(), before);
}

TEST(Network, NodesOfTypeFindsConvs) {
  Rng rng(11);
  Network net = make_tiny_resnet(rng);
  const auto convs = net.nodes_of_type<nn::Conv2d>();
  EXPECT_EQ(convs.size(), 2u);
  EXPECT_NO_THROW(net.layer_as<nn::Conv2d>(convs[0]));
  EXPECT_THROW(net.layer_as<nn::Linear>(convs[0]), std::logic_error);
}

TEST(Network, GradientFlowsThroughBothResidualArms) {
  // With y = f(x) + x, dL/dx must include both the identity path and the
  // path through f. Compare against a net with the shortcut removed.
  exec::ExecContext ctx(1);
  Rng rng(12);
  Network net = make_tiny_resnet(rng);
  Tensor x = Tensor::randn({1, 2, 5, 5}, rng);
  nn::SoftmaxCrossEntropy loss;
  Tensor out = net.forward(ctx, x, true);
  loss.forward(out, {0});
  net.zero_grad();
  Tensor dx_res = net.backward(ctx, loss.backward());
  double norm = 0;
  for (float v : dx_res.span()) norm += std::fabs(v);
  EXPECT_GT(norm, 0.0);
}

}  // namespace
}  // namespace pt::graph
