// Silent-data-corruption defense (ISSUE 7 tentpole): digest voting,
// in-place healing, and a scrubbed checkpoint generation chain.
//
// The guardian's HealthMonitor (health.h) catches *loud* failures — NaN
// losses, Inf parameters, divergence spikes. A silently corrupted weight
// that stays finite sails past every one of those checks, gets averaged
// into all replicas by the next allreduce, and can permanently prune the
// wrong channels at the next reconfiguration (the surgery is
// irreversible). This header turns the repo's determinism contract into a
// detector: replicas of an elastic cluster are bitwise-identical *by
// construction* (DESIGN.md §9/§10), so any digest disagreement between
// them is corruption by definition — no tolerance bands, no false-positive
// epsilon tuning.
//
// Three cooperating pieces:
//
//  * StateDigest / compute_state_digest(): an incremental CRC-32-per-tensor
//    digest of the named state dict (params + momentum + the strategy's
//    serialized state), topology-stamped with a CRC over the
//    (name, role, shape) sequence so digests survive reconfiguration —
//    two digests are comparable iff their topology stamps agree. Per-tensor
//    CRCs are computed in parallel on the exec::ExecContext (each tensor's
//    CRC is a pure function of its bytes, so the combination is
//    deterministic at any thread count).
//
//  * IntegrityMonitor: every `check_interval` steps, digests every live
//    replica, exchanges the digests (modeled via the allreduce layer's
//    ring accounting), and majority-votes. A minority replica is healed in
//    place — one fenced full-state copy from a voted-healthy replica, the
//    same mechanism as the PR 5 rejoin resync — without burning a rollback.
//    A vote with no strict majority (e.g. a 1-1 split on two replicas) is
//    escalated to the guardian's RecoveryPolicy as a fatal kSdcNoQuorum
//    event. The monitor is dist-agnostic: it sees replicas as
//    (rank, Network*) views and heals through a callback, so pt_robust
//    never links pt_dist (which already links pt_robust for fault
//    injection). core::PruneTrainer and the bench wire
//    dist::ElasticCluster::heal_replica in.
//
//  * CheckpointScrubber: replaces the single "last CRC-valid checkpoint"
//    with a retained generation chain. The trainer registers every
//    numbered save (`note_saved`), the scrubber prunes generations beyond
//    `keep_last_k`, and `scrub()` re-validates each retained file's CRC-32
//    footer in parallel on the ExecContext. Recovery consults the ledger:
//    when the newest file is torn or bit-rotted, the rollback cascades to
//    the newest *scrubbed-valid* generation instead of aborting
//    (recovery.h, find_rollback_target).
//
// Everything here is deterministic and injectable: the FaultInjector's
// sdc-param / sdc-momentum kinds plant finite in-place bitflips that only
// this subsystem can see, and torn-ckpt models the partial write the
// scrubber must catch.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/context.h"
#include "graph/network.h"
#include "util/registry.h"

namespace pt::robust {

/// CRC-32 of one state tensor's payload, under its qualified name.
struct TensorDigest {
  std::string name;
  std::uint8_t role = 0;   ///< nn::StateRole
  std::uint32_t crc = 0;   ///< CRC-32 of the raw float payload
};

/// Digest of one replica's full persistent state. `topology` stamps the
/// (name, role, dims) sequence; `state` chains every per-tensor CRC (plus
/// the topology stamp) into one word. Digests with different topology
/// stamps are *incomparable* (a reconfiguration happened in between), not
/// mismatched.
struct StateDigest {
  std::uint32_t topology = 0;
  std::uint32_t state = 0;
  std::vector<TensorDigest> tensors;

  /// True when `other` covers the same topology (same stamp) — the
  /// precondition for reading a state mismatch as corruption.
  bool comparable_with(const StateDigest& other) const {
    return topology == other.topology;
  }

  /// Names of tensors whose CRCs differ from `other`'s (same topology
  /// assumed) — the per-tensor granularity that turns "replica 1 is
  /// corrupt" into "replica 1's stage2.block0.conv1.weight is corrupt".
  std::vector<std::string> diff(const StateDigest& other) const;

  /// Modeled wire size of one digest: the per-tensor CRC words plus the
  /// two summary words (names travel once in the topology negotiation and
  /// are excluded, like any real digest-exchange protocol would).
  std::int64_t wire_bytes() const {
    return static_cast<std::int64_t>(tensors.size() + 2) *
           static_cast<std::int64_t>(sizeof(std::uint32_t));
  }
};

/// Digests `net`'s replica-invariant named state (kParam + kMomentum;
/// kGrad is transient and kBuffer tensors — BN running statistics — are
/// legitimately shard-local, so both are excluded) plus, when non-null,
/// the strategy's serialized state items (masks, trainable thresholds,
/// saliency EWMAs — corrupting those reroutes pruning just as surely as
/// corrupting a weight) and the gradient codec's serialized state
/// ("codec/<name>" pseudo-tensors: error-feedback residuals and live-row
/// masks steer what the next exchange averages). Codec state is held once
/// per *cluster* — every replica view digests the same object — so
/// including it never splits an honest vote the way per-replica BN buffers
/// would. Per-tensor CRCs run as a parallel_for on `ctx`; the result is
/// bitwise-identical at any thread count.
StateDigest compute_state_digest(
    graph::Network& net, exec::ExecContext& ctx,
    const std::vector<StateItem>* strategy_state = nullptr,
    const std::vector<StateItem>* codec_state = nullptr);

/// One replica as the monitor sees it: a rank for reporting and the
/// network to digest. Only *live* replicas belong in a vote — a dead
/// replica's state is legitimately stale, not corrupt.
struct ReplicaView {
  int rank = -1;
  graph::Network* net = nullptr;
};

/// What one digest vote found and did.
struct VoteOutcome {
  bool mismatch = false;        ///< at least one replica disagreed
  bool no_quorum = false;       ///< no strict majority — nothing healed
  int healthy_root = -1;        ///< rank state was healed from (-1: none)
  std::vector<int> healed;      ///< minority ranks healed in place
  std::int64_t heal_bytes = 0;  ///< state bytes copied by the heals
  std::int64_t digest_bytes = 0;///< modeled digest-exchange traffic
  std::uint32_t majority_crc = 0;
  std::string detail;           ///< human-readable summary of the split
};

class IntegrityMonitor {
 public:
  /// Heals `victim` by full state copy from `root`; returns bytes copied.
  /// core::PruneTrainer wires dist::ElasticCluster::heal_replica here.
  using HealFn = std::function<std::int64_t(int victim, int root)>;

  /// Votes every `check_interval` steps; 0 never votes. Throws
  /// std::invalid_argument when negative.
  explicit IntegrityMonitor(std::int64_t check_interval);

  std::int64_t check_interval() const { return check_interval_; }

  /// True when a vote is due after `steps_done` completed steps (every
  /// check_interval-th step; never before the first).
  bool due(std::int64_t steps_done) const {
    return check_interval_ > 0 && steps_done > 0 &&
           steps_done % check_interval_ == 0;
  }

  /// Digest + vote + heal over the live replica set. Digests compute on
  /// `ctx`; comparisons require matching topology stamps (a replica whose
  /// stamp differs from the plurality is treated as a minority of its
  /// own). Majority = strictly more than half the replicas agreeing on one
  /// state CRC; each minority replica is healed via `heal` from the first
  /// majority rank. With no strict majority the outcome is flagged
  /// no_quorum and *nothing* is healed — the caller escalates to the
  /// guardian. A single replica (or an empty view) trivially matches.
  VoteOutcome check_replicas(
      const std::vector<ReplicaView>& replicas, exec::ExecContext& ctx,
      const std::vector<StateItem>* strategy_state,
      const HealFn& heal,
      const std::vector<StateItem>* codec_state = nullptr);

  // Cumulative statistics, for reports/telemetry/bench.
  std::int64_t checks() const { return checks_; }
  std::int64_t mismatches() const { return mismatches_; }
  std::int64_t heals() const { return heals_; }
  std::int64_t heal_bytes_total() const { return heal_bytes_total_; }
  std::int64_t digest_bytes_total() const { return digest_bytes_total_; }

 private:
  std::int64_t check_interval_ = 0;
  std::int64_t checks_ = 0;
  std::int64_t mismatches_ = 0;
  std::int64_t heals_ = 0;
  std::int64_t heal_bytes_total_ = 0;
  std::int64_t digest_bytes_total_ = 0;
};

/// One retained checkpoint generation and its last scrub verdict.
struct GenerationInfo {
  std::string path;
  std::int64_t epoch = -1;  ///< generation number (the save's epoch counter)
  bool scrubbed = false;    ///< at least one scrub pass has seen this file
  bool valid = false;       ///< last scrub: CRC-32 footer verified
};

/// Retained checkpoint generation chain + background CRC scrubber.
///
/// The trainer registers each numbered save with note_saved(); generations
/// beyond `keep_last_k` are deleted from disk (oldest first) so the chain
/// stays bounded. scrub() re-validates every retained file's CRC-32 footer
/// as a parallel_for on the ExecContext — bit rot or a torn write that
/// happens *after* the save (exactly what the torn-ckpt fault injects) is
/// discovered before recovery needs the file, and the rollback can cascade
/// straight to newest_valid() instead of discovering the damage at load
/// time.
class CheckpointScrubber {
 public:
  /// `keep_last_k` == 0 retains every generation (the historical
  /// behavior). Throws std::invalid_argument when negative.
  explicit CheckpointScrubber(std::int64_t keep_last_k = 0);

  /// Registers a freshly written numbered checkpoint and prunes the chain
  /// to `keep_last_k` generations, deleting evicted files from disk.
  /// Re-registering an existing path resets its scrub verdict (the file
  /// was just rewritten).
  void note_saved(const std::string& path, std::int64_t epoch);

  /// Re-validates the CRC-32 footer of every retained generation, in
  /// parallel on `ctx`. Returns the number of valid generations.
  std::int64_t scrub(exec::ExecContext& ctx);

  /// Newest generation whose last scrub verified ("" when none has).
  std::string newest_valid() const;

  /// Scrub verdict for `path`: nullptr when the path is not a retained
  /// generation (or has never been scrubbed).
  const GenerationInfo* verdict(const std::string& path) const;

  /// Retained generations, oldest first.
  const std::vector<GenerationInfo>& generations() const {
    return generations_;
  }

  std::int64_t keep_last_k() const { return keep_last_k_; }
  std::int64_t scrub_passes() const { return scrub_passes_; }
  std::int64_t evicted() const { return evicted_; }

 private:
  std::int64_t keep_last_k_ = 0;
  std::vector<GenerationInfo> generations_;  ///< oldest first
  std::int64_t scrub_passes_ = 0;
  std::int64_t evicted_ = 0;
};

}  // namespace pt::robust
