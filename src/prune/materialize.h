// Inference materialization: turn a PruneTrained (union-reconfigured)
// network into a deployable inference form — the Sec. 4.2 / Figs. 6-7
// decision as a reusable API instead of ad-hoc example code.
//
// Two forms exist, matching the paper's comparison:
//
//  - kChannelUnion: serve the union-reconfigured model as-is. Every layer
//    stays dense (no indexing ops), at the cost of the redundant
//    branch-boundary channels the union keeps alive.
//  - kChannelGating: narrow each residual path to its own dense channels
//    behind ChannelSelect/ChannelScatter pairs (gating.h). Fewer FLOPs,
//    extra gather/scatter ops per forward pass.
//
// materialize_inference() is the single entry point the serving runtime
// (serve::ModelRegistry), the deployment example, and the Table 2 bench all
// go through, so their cost numbers agree by construction.
#pragma once

#include <cstdint>
#include <string>

#include "graph/network.h"
#include "prune/gating.h"

namespace pt::prune {

enum class InferenceForm { kChannelUnion, kChannelGating };

std::string to_string(InferenceForm form);

struct MaterializeStats {
  InferenceForm form = InferenceForm::kChannelUnion;
  GatingStats gating;            ///< zero-valued for kChannelUnion
  std::int64_t conv_layers = 0;  ///< live conv layers after materialization
  std::int64_t channels = 0;     ///< sum of live conv out-channels
};

/// Mutates a trained, union-reconfigured network into the requested
/// inference form and releases transient training state (cached backward
/// contexts). kChannelUnion leaves the structure untouched; kChannelGating
/// applies the gather/scatter transform of gating.h with `threshold` as the
/// dense-channel test. Idempotent for kChannelUnion; kChannelGating must
/// not be applied twice (the gating transform asserts union structure).
MaterializeStats materialize_inference(graph::Network& net, InferenceForm form,
                                       float threshold = 1e-4f);

}  // namespace pt::prune
