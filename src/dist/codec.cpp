#include "dist/codec.h"

#include <stdexcept>

namespace pt::dist {

void GradientCodec::bind(graph::Network& reference, int replicas) {
  if (replicas < 1) {
    throw std::invalid_argument("codec bind: replica count must be >= 1 (got " +
                                std::to_string(replicas) + ")");
  }
  const std::vector<nn::Param*> params = reference.params();
  sizes_.clear();
  sizes_.reserve(params.size());
  for (const nn::Param* p : params) sizes_.push_back(p->grad.numel());
  replicas_ = replicas;
}

}  // namespace pt::dist
