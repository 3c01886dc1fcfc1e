// Model builders for every CNN the paper evaluates: ResNet-20/32/56 (basic
// blocks), ResNet-50 (bottleneck blocks, CIFAR or ImageNet stem), and
// VGG-11/13 (with batch norm).
//
// All builders take a width multiplier so the same topology can run at
// paper scale (for the analytic cost models) or proxy scale (for actual
// single-core training runs). Builders populate graph::NetworkInfo with the
// residual-stage structure the pruning machinery consumes.
//
// Architectural note: the classifier head is GlobalAvgPool + Linear for all
// models (for VGG this replaces the original 3-FC head). This keeps
// FC-input pruning a clean per-channel slice and is the common modern
// variant; it is a documented substitution in DESIGN.md.
#pragma once

#include <cstdint>
#include <string>

#include "graph/network.h"
#include "util/rng.h"

namespace pt::models {

/// Input geometry / head / scaling configuration shared by all builders.
struct ModelConfig {
  std::int64_t in_channels = 3;
  std::int64_t image_h = 16;
  std::int64_t image_w = 16;
  std::int64_t classes = 10;
  float width_mult = 1.0f;   ///< scales every channel count (min 2)
  std::uint64_t seed = 123;  ///< weight-init stream
};

/// Scales a channel count by the width multiplier, clamping to >= 2.
std::int64_t scaled(std::int64_t channels, float width_mult);

/// CIFAR-style basic-block ResNet; depth must be 6n+2 (20, 32, 56, ...).
/// Stages use widths {16, 32, 64} x width_mult, stride-2 transitions with
/// 1x1 projection shortcuts.
graph::Network build_resnet_basic(int depth, const ModelConfig& cfg);

/// Bottleneck ResNet-50: stage blocks {3,4,6,3}, base widths
/// {64,128,256,512} x width_mult, expansion 4. `imagenet_stem` selects the
/// 7x7/s2 + maxpool stem; otherwise a CIFAR 3x3 stem.
graph::Network build_resnet50(const ModelConfig& cfg, bool imagenet_stem = false);

/// VGG-11 or VGG-13 with batch norm, GAP + Linear head.
graph::Network build_vgg(int depth, const ModelConfig& cfg);

/// Convenience dispatcher used by benches: name is one of
/// "resnet20", "resnet32", "resnet50", "resnet56", "vgg11", "vgg13".
graph::Network build_by_name(const std::string& name, const ModelConfig& cfg);

/// Number of live convolution layers (used for the paper's "removed
/// layers" metric, Tab. 3).
std::int64_t count_conv_layers(const graph::Network& net);

/// Sum of the output channels of every live convolution layer: the
/// channel count reconfiguration shrinks.
std::int64_t count_channels(const graph::Network& net);

}  // namespace pt::models
