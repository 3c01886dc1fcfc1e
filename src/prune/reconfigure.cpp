#include "prune/reconfigure.h"

#include <stdexcept>

#include "models/builders.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "prune/channel_analysis.h"

namespace pt::prune {

void Reconfigurer::zero_small_weights() {
  for (int id : net_->nodes_of_type<nn::Conv2d>()) {
    net_->layer_as<nn::Conv2d>(id).zero_small_weights(threshold_);
  }
}

bool Reconfigurer::remove_dead_branches(ReconfigStats& stats) {
  bool any = false;
  for (auto& blk : net_->info.blocks) {
    if (blk.removed) continue;
    bool dead = false;
    for (int conv_id : blk.path_convs) {
      const auto& conv = net_->layer_as<nn::Conv2d>(conv_id);
      (void)conv;
      if (dense_out_channels(*net_->node(conv_id).layer, threshold_).empty() ||
          dense_in_channels(*net_->node(conv_id).layer, threshold_).empty()) {
        dead = true;
        break;
      }
    }
    if (!dead) continue;
    // The add's input 0 is the residual path tail; input 1 is the short-cut
    // (builders guarantee this ordering; asserted in tests).
    const int shortcut_src = net_->node(blk.add_node).inputs[1];
    net_->bypass_add(blk.add_node, shortcut_src, blk.path_nodes);
    blk.removed = true;
    stats.blocks_removed += 1;
    stats.convs_removed += static_cast<std::int64_t>(blk.path_convs.size());
    any = true;
  }
  return any;
}

ReconfigStats Reconfigurer::reconfigure() {
  ReconfigStats stats;
  stats.channels_before = models::count_channels(*net_);

  zero_small_weights();
  remove_dead_branches(stats);

  const ChannelAnalysis analysis =
      analyze_channels(*net_, threshold_, min_channels_);

  auto full = [](std::int64_t extent) {
    std::vector<std::int64_t> keep(static_cast<std::size_t>(extent));
    for (std::int64_t i = 0; i < extent; ++i) keep[static_cast<std::size_t>(i)] = i;
    return keep;
  };

  for (int id : net_->topo_order()) {
    if (id == 0) continue;
    graph::Node& node = net_->node(id);
    if (node.kind != graph::Node::Kind::kLayer) continue;
    if (auto* conv = dynamic_cast<nn::Conv2d*>(node.layer.get())) {
      const auto& keep_in = analysis.keep_of(node.inputs[0]);
      const auto& keep_out = analysis.keep_of(id);
      const auto in =
          keep_in.empty() ? full(conv->in_channels()) : keep_in;
      const auto out =
          keep_out.empty() ? full(conv->out_channels()) : keep_out;
      if (static_cast<std::int64_t>(in.size()) != conv->in_channels() ||
          static_cast<std::int64_t>(out.size()) != conv->out_channels()) {
        conv->shrink(in, out);
      }
    } else if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(node.layer.get())) {
      const auto& keep = analysis.keep_of(node.inputs[0]);
      if (!keep.empty() &&
          static_cast<std::int64_t>(keep.size()) != bn->channels()) {
        bn->shrink(keep);
      }
    } else if (auto* fc = dynamic_cast<nn::Linear*>(node.layer.get())) {
      const auto& keep = analysis.keep_of(node.inputs[0]);
      if (!keep.empty() &&
          static_cast<std::int64_t>(keep.size()) != fc->in_features()) {
        fc->shrink_inputs(keep);
      }
    }
  }

  stats.channels_after = models::count_channels(*net_);
  stats.changed = stats.channels_after != stats.channels_before ||
                  stats.blocks_removed > 0;
  return stats;
}

}  // namespace pt::prune
