#include "prune/materialize.h"

#include "nn/conv2d.h"

namespace pt::prune {

std::string to_string(InferenceForm form) {
  switch (form) {
    case InferenceForm::kChannelUnion:
      return "union";
    case InferenceForm::kChannelGating:
      return "gating";
  }
  return "?";
}

MaterializeStats materialize_inference(graph::Network& net, InferenceForm form,
                                       float threshold) {
  MaterializeStats stats;
  stats.form = form;
  if (form == InferenceForm::kChannelGating) {
    stats.gating = apply_channel_gating(net, threshold);
  }
  net.clear_context();
  net.zero_grad();
  for (int id : net.nodes_of_type<nn::Conv2d>()) {
    ++stats.conv_layers;
    stats.channels += net.layer_as<nn::Conv2d>(id).out_channels();
  }
  return stats;
}

}  // namespace pt::prune
