#include "models/builders.h"

#include <cmath>
#include <stdexcept>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pool.h"

namespace pt::models {

std::int64_t scaled(std::int64_t channels, float width_mult) {
  const auto w = static_cast<std::int64_t>(
      std::lround(static_cast<double>(channels) * width_mult));
  return std::max<std::int64_t>(2, w);
}

namespace {

using graph::Network;
using graph::ResidualBlockInfo;

/// Shared builder state: network under construction plus the RNG stream.
struct Builder {
  Network net;
  Rng rng;
  int cursor = 0;  // current tail node

  explicit Builder(std::uint64_t seed) : rng(seed) { cursor = net.add_input(); }

  int conv(std::int64_t in_c, std::int64_t out_c, std::int64_t k, std::int64_t s,
           std::int64_t p, const std::string& name, int from = -1) {
    auto layer = std::make_shared<nn::Conv2d>(in_c, out_c, k, s, p, rng);
    layer->set_name(name);
    cursor = net.add_layer(layer, from < 0 ? cursor : from);
    return cursor;
  }

  int bn(std::int64_t c, const std::string& name, int from = -1) {
    auto layer = std::make_shared<nn::BatchNorm2d>(c);
    layer->set_name(name);
    cursor = net.add_layer(layer, from < 0 ? cursor : from);
    return cursor;
  }

  int relu(const std::string& name, int from = -1) {
    auto layer = std::make_shared<nn::ReLU>();
    layer->set_name(name);
    cursor = net.add_layer(layer, from < 0 ? cursor : from);
    return cursor;
  }

  int maxpool(std::int64_t window, const std::string& name) {
    auto layer = std::make_shared<nn::MaxPool2d>(window);
    layer->set_name(name);
    cursor = net.add_layer(layer, cursor);
    return cursor;
  }

  int head(std::int64_t channels, std::int64_t classes) {
    auto gap = std::make_shared<nn::GlobalAvgPool>();
    gap->set_name("head.gap");
    cursor = net.add_layer(gap, cursor);
    auto fc = std::make_shared<nn::Linear>(channels, classes, rng);
    fc->set_name("head.fc");
    cursor = net.add_layer(fc, cursor);
    net.info.classifier = cursor;
    net.set_output(cursor);
    return cursor;
  }
};

/// Basic residual block: conv3x3(s)-bn-relu-conv3x3-bn (+shortcut) -relu.
void basic_block(Builder& b, std::int64_t in_c, std::int64_t out_c, std::int64_t stride,
                 const std::string& prefix) {
  const int entry = b.cursor;
  ResidualBlockInfo info;
  const int c1 = b.conv(in_c, out_c, 3, stride, 1, prefix + ".conv1", entry);
  const int n1 = b.bn(out_c, prefix + ".bn1");
  const int r1 = b.relu(prefix + ".relu1");
  const int c2 = b.conv(out_c, out_c, 3, 1, 1, prefix + ".conv2");
  const int n2 = b.bn(out_c, prefix + ".bn2");
  info.path_nodes = {c1, n1, r1, c2, n2};
  info.path_convs = {c1, c2};
  int shortcut = entry;
  if (stride != 1 || in_c != out_c) {
    const int sc = b.conv(in_c, out_c, 1, stride, 0, prefix + ".shortcut.conv", entry);
    const int sb = b.bn(out_c, prefix + ".shortcut.bn");
    info.shortcut_nodes = {sc, sb};
    info.shortcut_conv = sc;
    shortcut = sb;
  }
  const int add = b.net.add_add(n2, shortcut);
  info.add_node = add;
  b.cursor = add;
  b.relu(prefix + ".relu_out");
  b.net.info.blocks.push_back(std::move(info));
}

/// Bottleneck block: conv1x1-bn-relu-conv3x3(s)-bn-relu-conv1x1-bn
/// (+shortcut) -relu; expansion 4.
void bottleneck_block(Builder& b, std::int64_t in_c, std::int64_t mid_c,
                      std::int64_t out_c, std::int64_t stride,
                      const std::string& prefix) {
  const int entry = b.cursor;
  ResidualBlockInfo info;
  const int c1 = b.conv(in_c, mid_c, 1, 1, 0, prefix + ".conv1", entry);
  const int n1 = b.bn(mid_c, prefix + ".bn1");
  const int r1 = b.relu(prefix + ".relu1");
  const int c2 = b.conv(mid_c, mid_c, 3, stride, 1, prefix + ".conv2");
  const int n2 = b.bn(mid_c, prefix + ".bn2");
  const int r2 = b.relu(prefix + ".relu2");
  const int c3 = b.conv(mid_c, out_c, 1, 1, 0, prefix + ".conv3");
  const int n3 = b.bn(out_c, prefix + ".bn3");
  info.path_nodes = {c1, n1, r1, c2, n2, r2, c3, n3};
  info.path_convs = {c1, c2, c3};
  int shortcut = entry;
  if (stride != 1 || in_c != out_c) {
    const int sc = b.conv(in_c, out_c, 1, stride, 0, prefix + ".shortcut.conv", entry);
    const int sb = b.bn(out_c, prefix + ".shortcut.bn");
    info.shortcut_nodes = {sc, sb};
    info.shortcut_conv = sc;
    shortcut = sb;
  }
  const int add = b.net.add_add(n3, shortcut);
  info.add_node = add;
  b.cursor = add;
  b.relu(prefix + ".relu_out");
  b.net.info.blocks.push_back(std::move(info));
}

}  // namespace

graph::Network build_resnet_basic(int depth, const ModelConfig& cfg) {
  if ((depth - 2) % 6 != 0 || depth < 8) {
    throw std::invalid_argument("basic ResNet depth must be 6n+2, got " +
                                std::to_string(depth));
  }
  const int n = (depth - 2) / 6;
  Builder b(cfg.seed);
  const std::int64_t w16 = scaled(16, cfg.width_mult);
  const std::int64_t w32 = scaled(32, cfg.width_mult);
  const std::int64_t w64 = scaled(64, cfg.width_mult);

  b.net.info.first_conv = b.conv(cfg.in_channels, w16, 3, 1, 1, "stem.conv");
  b.bn(w16, "stem.bn");
  b.relu("stem.relu");

  const std::int64_t widths[3] = {w16, w32, w64};
  std::int64_t in_c = w16;
  for (int stage = 0; stage < 3; ++stage) {
    for (int blk = 0; blk < n; ++blk) {
      const std::int64_t stride = (stage > 0 && blk == 0) ? 2 : 1;
      basic_block(b, in_c, widths[stage], stride,
                  "stage" + std::to_string(stage) + ".block" + std::to_string(blk));
      in_c = widths[stage];
    }
  }
  b.head(in_c, cfg.classes);
  return std::move(b.net);
}

graph::Network build_resnet50(const ModelConfig& cfg, bool imagenet_stem) {
  Builder b(cfg.seed);
  const int blocks_per_stage[4] = {3, 4, 6, 3};
  const std::int64_t base[4] = {scaled(64, cfg.width_mult), scaled(128, cfg.width_mult),
                                scaled(256, cfg.width_mult),
                                scaled(512, cfg.width_mult)};
  constexpr std::int64_t kExpansion = 4;

  const std::int64_t stem_c = base[0];
  if (imagenet_stem) {
    b.net.info.first_conv = b.conv(cfg.in_channels, stem_c, 7, 2, 3, "stem.conv");
    b.bn(stem_c, "stem.bn");
    b.relu("stem.relu");
    b.maxpool(2, "stem.pool");
  } else {
    b.net.info.first_conv = b.conv(cfg.in_channels, stem_c, 3, 1, 1, "stem.conv");
    b.bn(stem_c, "stem.bn");
    b.relu("stem.relu");
  }

  std::int64_t in_c = stem_c;
  for (int stage = 0; stage < 4; ++stage) {
    const std::int64_t mid = base[stage];
    const std::int64_t out = base[stage] * kExpansion;
    for (int blk = 0; blk < blocks_per_stage[stage]; ++blk) {
      const std::int64_t stride = (stage > 0 && blk == 0) ? 2 : 1;
      bottleneck_block(b, in_c, mid, out, stride,
                       "stage" + std::to_string(stage) + ".block" +
                           std::to_string(blk));
      in_c = out;
    }
  }
  b.head(in_c, cfg.classes);
  return std::move(b.net);
}

graph::Network build_vgg(int depth, const ModelConfig& cfg) {
  // Per-stage conv counts of the original configs A (VGG-11) and B (VGG-13).
  std::vector<std::vector<std::int64_t>> plan;
  if (depth == 11) {
    plan = {{64}, {128}, {256, 256}, {512, 512}, {512, 512}};
  } else if (depth == 13) {
    plan = {{64, 64}, {128, 128}, {256, 256}, {512, 512}, {512, 512}};
  } else {
    throw std::invalid_argument("VGG depth must be 11 or 13");
  }
  Builder b(cfg.seed);
  std::int64_t in_c = cfg.in_channels;
  std::int64_t h = cfg.image_h;
  bool first = true;
  for (std::size_t stage = 0; stage < plan.size(); ++stage) {
    for (std::size_t i = 0; i < plan[stage].size(); ++i) {
      const std::int64_t out_c = scaled(plan[stage][i], cfg.width_mult);
      const std::string prefix =
          "stage" + std::to_string(stage) + ".conv" + std::to_string(i);
      const int conv_id = b.conv(in_c, out_c, 3, 1, 1, prefix);
      if (first) {
        b.net.info.first_conv = conv_id;
        first = false;
      }
      b.bn(out_c, prefix + ".bn");
      b.relu(prefix + ".relu");
      in_c = out_c;
    }
    // Down-sample while the spatial extent allows it (small proxy inputs run
    // out of pixels before five halvings).
    if (h >= 2) {
      b.maxpool(2, "stage" + std::to_string(stage) + ".pool");
      h /= 2;
    }
  }
  b.head(in_c, cfg.classes);
  return std::move(b.net);
}

graph::Network build_by_name(const std::string& name, const ModelConfig& cfg) {
  if (name == "resnet8") return build_resnet_basic(8, cfg);
  if (name == "resnet20") return build_resnet_basic(20, cfg);
  if (name == "resnet32") return build_resnet_basic(32, cfg);
  if (name == "resnet56") return build_resnet_basic(56, cfg);
  if (name == "resnet50") return build_resnet50(cfg, false);
  if (name == "resnet50-imagenet") return build_resnet50(cfg, true);
  if (name == "vgg11") return build_vgg(11, cfg);
  if (name == "vgg13") return build_vgg(13, cfg);
  throw std::invalid_argument("unknown model: " + name);
}

std::int64_t count_conv_layers(const graph::Network& net) {
  std::int64_t count = 0;
  for (std::size_t i = 0; i < net.num_nodes(); ++i) {
    const graph::Node& n = net.node(static_cast<int>(i));
    if (n.kind == graph::Node::Kind::kLayer &&
        dynamic_cast<const nn::Conv2d*>(n.layer.get()) != nullptr) {
      ++count;
    }
  }
  return count;
}

std::int64_t count_channels(const graph::Network& net) {
  std::int64_t count = 0;
  for (int id : net.nodes_of_type<nn::Conv2d>()) {
    const auto& conv = dynamic_cast<const nn::Conv2d&>(*net.node(id).layer);
    count += conv.out_channels();
  }
  return count;
}

}  // namespace pt::models
