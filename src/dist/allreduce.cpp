#include "dist/allreduce.h"

#include <algorithm>
#include <sstream>

#include "telemetry/metrics.h"

namespace pt::dist {

namespace {

std::string divergence_message(int replica, std::size_t param_count,
                               std::size_t expected_count) {
  std::ostringstream os;
  os << "allreduce: replica " << replica << " diverged: " << param_count
     << " params, group has " << expected_count;
  return os.str();
}

}  // namespace

ReplicaDivergence::ReplicaDivergence(int replica, std::size_t param_count,
                                     std::size_t expected_count)
    : std::logic_error(divergence_message(replica, param_count,
                                          expected_count)),
      replica_(replica),
      param_count_(param_count),
      expected_count_(expected_count) {}

robust::HealthEvent ReplicaDivergence::to_health_event(
    std::int64_t epoch) const {
  return {robust::EventType::kReplicaDivergence, robust::Severity::kFatal,
          epoch, static_cast<double>(replica_), what()};
}

ExchangeStats exchange_gradients(GradientCodec& codec,
                                 const std::vector<graph::Network*>& nets,
                                 const std::vector<double>& weights,
                                 exec::ExecContext& ctx,
                                 const std::vector<int>& ranks) {
  ExchangeStats stats;
  if (weights.size() != nets.size()) {
    throw std::invalid_argument("allreduce: weight count mismatch");
  }
  if (nets.empty()) return stats;
  double total_weight = 0;
  for (double w : weights) total_weight += w;
  if (total_weight <= 0) return stats;

  std::vector<std::vector<nn::Param*>> params;
  params.reserve(nets.size());
  for (graph::Network* n : nets) params.push_back(n->params());
  const std::size_t np = params[0].size();
  for (std::size_t i = 1; i < params.size(); ++i) {
    if (params[i].size() == np) continue;
    const int rank = ranks.empty() ? static_cast<int>(i) : ranks.at(i);
    ReplicaDivergence err(rank, params[i].size(), np);
    if (telemetry::enabled()) {
      telemetry::event("health/replica-divergence", err.what());
    }
    throw err;
  }
  if (codec.sizes().size() != np) {
    throw std::logic_error(
        "exchange: codec '" + codec.name() + "' is bound to " +
        std::to_string(codec.sizes().size()) + " tensors, group has " +
        std::to_string(np) + " (rebind after reconfiguration)");
  }
  std::int64_t total_elems = 0;
  for (std::size_t i = 0; i < np; ++i) {
    const std::int64_t n = params[0][i]->grad.numel();
    if (codec.sizes()[i] != n) {
      throw std::logic_error("exchange: codec '" + codec.name() +
                             "' expects " + std::to_string(codec.sizes()[i]) +
                             " elements for tensor " + std::to_string(i) +
                             ", group has " + std::to_string(n) +
                             " (rebind after reconfiguration)");
    }
    total_elems += n;
  }
  std::vector<std::size_t> senders;
  for (std::size_t r = 0; r < nets.size(); ++r) {
    if (weights[r] != 0) senders.push_back(r);
  }

  // Encode -> decode -> reduce -> broadcast, tensor by tensor, for the
  // tensors [t0, t1) on `run`. The decoded staging buffers make the
  // averaging loop codec-agnostic: with the dense codec they hold the
  // gradients bit-for-bit, so the weighted average is bitwise the
  // pre-codec exchange. Every element sums in replica-index order.
  std::vector<double> wire_bytes(np, 0.0);
  auto exchange = [&](std::size_t t0, std::size_t t1, exec::ExecContext& run) {
    std::vector<std::vector<float>> decoded(nets.size());
    for (std::size_t i = t0; i < t1; ++i) {
      nn::Param* root = params[0][i];
      const std::int64_t n = root->grad.numel();
      for (std::size_t r : senders) {
        const int rank = ranks.empty() ? static_cast<int>(r) : ranks.at(r);
        WireTensor wire =
            codec.encode(rank, i, params[r][i]->grad.data(), n, run);
        decoded[r].resize(static_cast<std::size_t>(n));
        codec.decode(wire, i, decoded[r].data(), run);
        // Every participant ships the same encoded size: count one.
        if (r == senders.front()) wire_bytes[i] = wire.wire_bytes;
      }
      for (std::int64_t q = 0; q < n; ++q) {
        double acc = 0;
        for (std::size_t r : senders) {
          acc += weights[r] *
                 static_cast<double>(decoded[r][static_cast<std::size_t>(q)]);
        }
        root->grad.data()[q] = static_cast<float>(acc / total_weight);
      }
      for (std::size_t r = 1; r < nets.size(); ++r) {
        std::copy(root->grad.data(), root->grad.data() + n,
                  params[r][i]->grad.data());
      }
    }
  };

  // One region over the tensors: chunk c takes a contiguous run of tensors
  // holding ~1/T of the elements and exchanges it on lane c. Codec state
  // is per (rank, tensor), so chunks never share any. Each tensor's bits
  // do not depend on which chunk ran it.
  const int chunks =
      static_cast<int>(std::min<std::int64_t>(ctx.num_threads(), total_elems));
  if (chunks < 2) {
    exchange(0, np, ctx);
  } else {
    // Chunk c runs tensors [first[c], first[c+1]): first[c] is the first
    // tensor whose predecessors hold at least c/T of the elements.
    std::vector<std::size_t> first(static_cast<std::size_t>(chunks) + 1, np);
    first[0] = 0;
    std::int64_t seen = 0;  // elements of the tensors before i
    int c = 1;
    for (std::size_t i = 0; i < np && c < chunks; ++i) {
      while (c < chunks && seen * chunks >= total_elems * c) {
        first[static_cast<std::size_t>(c++)] = i;
      }
      seen += params[0][i]->grad.numel();
    }
    ctx.pool().parallel_for(
        chunks, [&](std::int64_t, std::int64_t, int chunk) {
          exchange(first[static_cast<std::size_t>(chunk)],
                   first[static_cast<std::size_t>(chunk) + 1],
                   ctx.lane(chunk));
        });
  }

  // Per-worker volume, summed in tensor order.
  for (std::size_t i = 0; i < np; ++i) {
    stats.wire_bytes += wire_bytes[i];
    stats.dense_bytes += static_cast<double>(params[0][i]->grad.numel()) * 4.0;
  }
  return stats;
}

}  // namespace pt::dist
