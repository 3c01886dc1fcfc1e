// The fixed-membership data-parallel step, written out by hand. It is the
// reference both bench/elastic_overhead (flag
// determinism_bitwise_elastic_vs_reference) and dist_test hold
// dist::ElasticCluster's all-healthy step to, bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "data/loader.h"
#include "graph/network.h"
#include "nn/loss.h"
#include "optim/sgd.h"

namespace pt::bench {

struct ReferenceStepResult {
  double loss = 0;           ///< shard-weighted mean loss
  std::int64_t correct = 0;  ///< correct predictions over the whole batch
};

/// Contiguous shards over every net (the first total % p take one extra),
/// gradients averaged by shard weight with double accumulation in rank
/// order, the average copied to every net, then the same SGD step on each.
inline ReferenceStepResult reference_step(std::vector<graph::Network>& nets,
                                          const data::Batch& batch,
                                          optim::SGD& opt) {
  exec::ExecContext ctx(1);
  const std::int64_t p = static_cast<std::int64_t>(nets.size());
  const std::int64_t total = batch.size();
  const Shape& s = batch.images.shape();
  const std::int64_t len = s[1] * s[2] * s[3];
  ReferenceStepResult result;
  std::vector<double> weights;
  std::int64_t offset = 0;
  for (std::int64_t r = 0; r < p; ++r) {
    const std::int64_t shard = total / p + (r < total % p ? 1 : 0);
    weights.push_back(static_cast<double>(shard));
    if (shard == 0) continue;
    Tensor images({shard, s[1], s[2], s[3]});
    std::copy(batch.images.data() + offset * len,
              batch.images.data() + (offset + shard) * len, images.data());
    std::vector<std::int64_t> labels(batch.labels.begin() + offset,
                                     batch.labels.begin() + offset + shard);
    offset += shard;
    graph::Network& net = nets[static_cast<std::size_t>(r)];
    net.zero_grad();
    nn::SoftmaxCrossEntropy loss;
    Tensor out = net.forward(ctx, images, true);
    result.loss += loss.forward(out, labels) * static_cast<double>(shard);
    result.correct += loss.correct();
    net.backward(ctx, loss.backward());
  }
  result.loss /= static_cast<double>(total);
  double total_weight = 0;
  for (double w : weights) total_weight += w;
  std::vector<std::vector<nn::Param*>> params;
  for (graph::Network& net : nets) params.push_back(net.params());
  for (std::size_t i = 0; i < params.front().size(); ++i) {
    const std::int64_t n = params.front()[i]->grad.numel();
    std::vector<float> avg(static_cast<std::size_t>(n));
    for (std::int64_t q = 0; q < n; ++q) {
      double acc = 0;
      for (std::size_t r = 0; r < params.size(); ++r) {
        if (weights[r] == 0) continue;
        acc += weights[r] * static_cast<double>(params[r][i]->grad.data()[q]);
      }
      avg[static_cast<std::size_t>(q)] = static_cast<float>(acc / total_weight);
    }
    for (auto& p_r : params) {
      std::copy(avg.begin(), avg.end(), p_r[i]->grad.data());
    }
  }
  for (graph::Network& net : nets) opt.step(net.params());
  return result;
}

}  // namespace pt::bench
