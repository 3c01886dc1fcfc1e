#include "prune/materialize.h"

#include "models/builders.h"

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
  stats.conv_layers = models::count_conv_layers(net);
  stats.channels = models::count_channels(net);
  return stats;
}

}  // namespace pt::prune
