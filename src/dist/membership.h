// Replica lifecycle tracking for elastic data-parallel training (ISSUE 5
// tentpole): the bookkeeping half of dist::ElasticCluster.
//
// Each replica moves through a four-state machine driven by a modeled
// heartbeat/step-ack protocol:
//
//   HEALTHY --miss--> SUSPECT --K misses--> DEAD --rejoin--> REJOINING
//      ^                                                        |
//      +------------------- first synced step -------------------+
//
// A replica acks a step unless its permanent-failure latch is set (by a
// kill-replica / flaky-replica fault or a statically scheduled departure).
// The latch is the *only* thing that decides participation: a replica
// computes and joins the allreduce iff it acked, so the shard layout of a
// step depends only on *which step each member stopped acking* — never on
// the SUSPECT counter, the detection threshold, or any other observational
// state. That is the determinism contract: a run where replica 2 dies at
// step 50 is bitwise identical to a run whose membership schedule had that
// departure fixed from step 0 (dist_test.cpp holds this as an acceptance
// test). SUSPECT and DEAD exist to *report* the failure (and to gate
// rejoin, which is only offered to DEAD members), not to shape numerics.
//
// Straggler accounting rides along: per-replica EWMA of measured step time
// (wall clock + injected delay) feeds the modeled synchronous step cost in
// ElasticCluster (max over live EWMAs + modeled allreduce time).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "robust/fault.h"

namespace pt::dist {

enum class ReplicaState : std::uint8_t {
  kHealthy = 0,    ///< acking heartbeats, full participant
  kSuspect = 1,    ///< missed < suspect_threshold consecutive acks
  kDead = 2,       ///< permanent failure declared; eligible for rejoin
  kRejoining = 3,  ///< resyncing; fenced out of compute + allreduce
};

std::string to_string(ReplicaState state);

struct MembershipConfig {
  /// Consecutive missed step-acks before a SUSPECT member is declared
  /// DEAD. Detection bookkeeping only — participation stops at the first
  /// missed ack regardless (see the determinism contract above).
  std::int64_t suspect_threshold = 3;
  /// Quorum: a step needs >= ceil(min_live_fraction * size) participants,
  /// else ElasticCluster raises ClusterDegraded into the guardian.
  double min_live_fraction = 0.5;
  /// When false, DEAD is terminal: rejoin faults and schedules are ignored.
  bool allow_rejoin = true;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Point-in-time view of one replica's membership record.
struct MemberStatus {
  ReplicaState state = ReplicaState::kHealthy;
  bool failed = false;              ///< permanent-failure latch
  int missed_acks = 0;              ///< consecutive misses while latched
  std::int64_t failed_since = -1;   ///< first step with no ack (-1 = never)
  std::int64_t rejoined_at = -1;    ///< step of last REJOINING->HEALTHY
  double ewma_step_seconds = 0;     ///< straggler estimate (0 = no sample)
  std::int64_t steps_participated = 0;
};

/// One state-machine edge, for telemetry and tests.
struct MembershipTransition {
  int replica = -1;
  ReplicaState from = ReplicaState::kHealthy;
  ReplicaState to = ReplicaState::kHealthy;
  std::int64_t step = -1;

  /// "replica 2: suspect -> dead at step 52".
  std::string describe() const;
};

class MembershipTable {
 public:
  MembershipTable(int size, MembershipConfig cfg);

  int size() const { return static_cast<int>(members_.size()); }
  const MemberStatus& member(int replica) const;
  const MembershipConfig& config() const { return cfg_; }

  /// Statically scripts a permanent departure: replica stops acking at
  /// `step`, exactly as if a kill-replica fault fired there. This is the
  /// injector-free path the bitwise acceptance test compares against.
  void schedule_departure(int replica, std::int64_t step);

  /// Statically scripts a rejoin attempt at `step` (honored only if the
  /// replica is DEAD by then and allow_rejoin is set).
  void schedule_rejoin(int replica, std::int64_t step);

  /// One heartbeat round: consults static schedules and (when non-null)
  /// the fault injector in rank order, latches new permanent failures,
  /// advances every member's state, and promotes members that finished
  /// resyncing last step to HEALTHY. Call exactly once per cluster step,
  /// before sharding.
  void poll(std::int64_t step, robust::FaultInjector* injector);

  /// Rank-ordered replicas that acked the last poll: they compute, they
  /// allreduce, and nothing else does. Valid until the next poll().
  const std::vector<int>& participants() const { return participants_; }

  /// Replicas that entered REJOINING at the last poll and must be resynced
  /// (fenced) during this step.
  const std::vector<int>& rejoining() const { return rejoining_; }

  /// Minimum participants for a step: ceil(min_live_fraction * size).
  int quorum_threshold() const;

  /// Folds one measured step time (seconds) into the replica's EWMA.
  void record_step_time(int replica, double seconds);

  /// Largest EWMA among `replicas` — the modeled synchronous-step critical
  /// path (0 when nobody has a sample yet).
  double max_ewma(const std::vector<int>& replicas) const;

  /// Returns and clears the accumulated transition log.
  std::vector<MembershipTransition> drain_transitions();

 private:
  void transition(int replica, ReplicaState to, std::int64_t step);

  MembershipConfig cfg_;
  std::vector<MemberStatus> members_;
  std::vector<std::int64_t> departure_at_;  ///< -1 = none scheduled
  std::vector<std::int64_t> rejoin_at_;     ///< -1 = none scheduled
  std::vector<int> participants_;
  std::vector<int> rejoining_;
  std::vector<MembershipTransition> transitions_;
};

}  // namespace pt::dist
