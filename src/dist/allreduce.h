// Codec-driven gradient exchange for the simulated cluster.
//
// dist::ElasticCluster::step exchanges gradients this way, and benches and
// tests call it directly: every participating replica encodes its
// gradients through the cluster's GradientCodec, the decoded payloads are
// averaged (weighted, in replica-index order) into the first network's
// buffers, and the result is broadcast — deterministic summation
// order keeps every receiving replica bit-identical, and with the `dense`
// codec the arithmetic is bit-for-bit the pre-codec exchange. The only
// structural failure mode is a diverged parameter table (a replica whose
// topology no longer matches the group, e.g. a stale-shape rejoiner that
// skipped its resync fence); that is reported as ReplicaDivergence naming
// the offending replica, not a bare logic_error.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/codec.h"
#include "exec/context.h"
#include "graph/network.h"
#include "robust/health.h"

namespace pt::dist {

/// A replica's parameter table does not match the group's: carries the
/// replica rank and both param counts so the operator can tell *which*
/// worker drifted, and converts to a structured HealthEvent for the
/// guardian pathway.
class ReplicaDivergence : public std::logic_error {
 public:
  ReplicaDivergence(int replica, std::size_t param_count,
                    std::size_t expected_count);

  int replica() const { return replica_; }
  std::size_t param_count() const { return param_count_; }
  std::size_t expected_count() const { return expected_count_; }

  /// Fatal kReplicaDivergence event (caller stamps the epoch).
  robust::HealthEvent to_health_event(std::int64_t epoch = -1) const;

 private:
  int replica_;
  std::size_t param_count_;
  std::size_t expected_count_;
};

/// Bytes one worker contributed to the exchange (sum over its tensors).
struct ExchangeStats {
  double wire_bytes = 0;   ///< encoded bytes as the codec would ship them
  double dense_bytes = 0;  ///< FP32-dense equivalent of the same gradients
};

/// Exchanges every parameter gradient across `nets` through `codec`:
/// participating nets (weights[i] > 0) encode, everyone receives the
/// weighted average of the decoded payloads (weights[i] == 0 means
/// excluded from the reduction but still receiving the broadcast).
/// `ranks` maps index -> replica rank for error reporting and per-replica
/// codec state, and may be empty (identity). The codec must be bound to
/// the nets' current topology. Throws ReplicaDivergence when a net's param
/// table size differs from nets[0]'s; a zero total weight is a no-op.
ExchangeStats exchange_gradients(GradientCodec& codec,
                                 const std::vector<graph::Network*>& nets,
                                 const std::vector<double>& weights,
                                 exec::ExecContext& ctx,
                                 const std::vector<int>& ranks = {});

}  // namespace pt::dist
