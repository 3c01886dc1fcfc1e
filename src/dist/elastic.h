// The data-parallel step (Sec. 2.2 "Distributed Training"): N in-process
// replicas with a deterministic gradient allreduce, standing in for the
// paper's 4-GPU NCCL setup, plus elastic membership.
//
//  * Each step shards the mini-batch into contiguous chunks over the
//    participants in rank order (participant i takes total/n +
//    (i < total%n) samples), averages gradients weighted by shard size in
//    rank order, and applies the same optimizer step everywhere, so
//    participants stay bit-identical. The layout depends only on the
//    participant set — the same contract pt::exec makes for intra-step
//    parallelism (membership.h spells it out). Comm volume is accounted
//    with the ring-allreduce cost model from src/cost. A one-replica
//    cluster is plain single-device training: the exchange over one
//    participant is the identity.
//
//  * Rank 0 may be borrowed: PruneTrainer hands in its own model, so the
//    cluster clones only ranks 1..N-1 and the trainer's model is the one
//    that trains.
//
//  * A MembershipTable heartbeat round runs before every step. Replicas
//    whose permanent-failure latch is set (kill-replica / flaky-replica
//    faults, or a scheduled departure) are excluded from compute,
//    allreduce, broadcast, *and* the optimizer step: a dead replica goes
//    stale, which is what makes rejoin a real protocol. Fewer than
//    ceil(min_live_fraction * size) participants raises ClusterDegraded
//    (a fatal kQuorumLoss HealthEvent for the guardian).
//
//  * Transient faults leave membership alone. A drop-replica fault fails
//    one attempt of a participant's shard; each failure charges
//    kDropDetectSeconds and is retried up to kDropRetries times. A shard
//    still down is dropped from compute and the loss (allreduce weight 0),
//    but its replica still takes the averaged gradient, the optimizer step
//    and the update hooks, so it stays bit-identical. Short batches
//    leave trailing shards empty the same way. delay-replica is modeled
//    straggler time, never a failed attempt.
//
//  * Fenced rejoin: a DEAD replica revived by a rejoin-replica fault (or
//    schedule_rejoin) spends one fenced step REJOINING — it is rebuilt as a
//    clone of the first participant when its topology went stale (a
//    reconfiguration while it was dead), then receives a full state
//    broadcast (params + momentum + BN buffers) from that participant, so
//    its first synced step is bit-identical to the survivors'. Resynced
//    bytes are accounted.
//
//  * Straggler accounting: measured step time plus injected delay and drop
//    detection feeds a per-replica EWMA; the modeled synchronous step time
//    is max live EWMA + modeled allreduce time at the live ring size.
//
//  * Threads: the step is a serial pre-pass (drop decisions, shard bounds),
//    one parallel region over the computed shards — chunk c runs its
//    shards' forward/backward on the context's lane c — and a serial
//    post-pass in rank order (loss sums, gradient corruption, delay). The
//    exchange is one region over tensors. With one thread or one computed
//    shard the shards run on the context itself, whose kernels split each
//    layer. Every bit is independent of the thread count (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cost/comm.h"
#include "data/loader.h"
#include "dist/codec.h"
#include "dist/membership.h"
#include "exec/context.h"
#include "graph/network.h"
#include "optim/sgd.h"
#include "robust/fault.h"
#include "robust/health.h"

namespace pt::dist {

struct StepResult {
  double loss = 0;                ///< mean loss over *processed* samples
  double loss_sum = 0;            ///< shard-weighted sum behind `loss`
  std::int64_t correct = 0;       ///< correct predictions among processed
  std::int64_t processed = 0;     ///< samples actually trained this step
  int live_replicas = 0;          ///< participants this step
  double comm_bytes_per_gpu = 0;  ///< ring bytes at the live ring size
  double comm_time_modeled = 0;   ///< modeled allreduce time, live ring
  double step_time_modeled = 0;   ///< max live EWMA + comm_time_modeled
  double fault_wait_seconds = 0;  ///< straggler delay + drop detection time
  std::int64_t resync_bytes = 0;  ///< state bytes broadcast to rejoiners
  std::int64_t retries = 0;       ///< failed shard attempts that were retried
  std::int64_t dropped_replicas = 0;  ///< shards dropped after kDropRetries
};

/// Re-attempts of a dropped shard per step, and the modeled seconds each
/// failed attempt charges to StepResult::fault_wait_seconds.
inline constexpr std::int64_t kDropRetries = 2;
inline constexpr double kDropDetectSeconds = 1.0;

/// Raised by ElasticCluster::step when the live set falls below quorum
/// (or every populated shard was dropped); carries the fatal kQuorumLoss
/// event for the guardian. The epoch field is -1 (the cluster counts
/// steps, not epochs) — the trainer stamps it.
class ClusterDegraded : public std::runtime_error {
 public:
  explicit ClusterDegraded(robust::HealthEvent event)
      : std::runtime_error(event.describe()), event_(std::move(event)) {}
  const robust::HealthEvent& event() const { return event_; }
  robust::HealthEvent& event() { return event_; }

 private:
  robust::HealthEvent event_;
};

class ElasticCluster {
 public:
  /// The prune strategy's per-step hooks, run on participants only (dead
  /// replicas stay untouched), in rank order on the stepping thread.
  /// `before_update` runs after the gradient exchange and before the
  /// optimizer step; `after_update` runs after it. `first` is true only for
  /// the first participant of the step — strategy *state* updates must run
  /// once per step, while per-replica gradient and weight changes run for
  /// every participant.
  struct StepHooks {
    std::function<void(graph::Network&, bool first)> before_update;
    std::function<void(graph::Network&, bool first)> after_update;
  };

  /// Takes ownership of `replicas` (structurally identical, identically
  /// initialized). `comm.gpus` must match the replica count.
  ElasticCluster(std::vector<graph::Network> replicas, cost::CommSpec comm,
                 MembershipConfig membership = {});
  /// Borrows `rank0` as replica 0 (it must outlive the cluster, and every
  /// rejoin or heal of rank 0 rewrites it in place) and clones it into
  /// ranks 1..replicas-1. `comm.gpus` must equal `replicas`.
  ElasticCluster(graph::Network& rank0, int replicas, cost::CommSpec comm,
                 MembershipConfig membership = {});
  ElasticCluster(const ElasticCluster&) = delete;
  ElasticCluster& operator=(const ElasticCluster&) = delete;
  ElasticCluster(ElasticCluster&&) = default;
  ElasticCluster& operator=(ElasticCluster&&) = default;

  int size() const { return static_cast<int>(replicas_.size()); }
  graph::Network& replica(int i) {
    return *replicas_[static_cast<std::size_t>(i)];
  }
  const MembershipTable& membership() const { return table_; }
  const MemberStatus& member(int r) const { return table_.member(r); }
  /// Replicas currently able to ack (HEALTHY), per the last poll; before
  /// the first step this is the full size.
  int live_count() const;

  /// Attaches a fault injector (by value; pass {} to disarm). Membership
  /// kinds (kill/flaky/rejoin) are consulted by the heartbeat poll;
  /// drop-replica fails shard attempts (retry, then drop the shard);
  /// gradient kinds corrupt the matching participant after backward;
  /// delay-replica charges modeled straggler time into the EWMA.
  void set_fault_injector(robust::FaultInjector injector);
  const robust::FaultInjector& fault_injector() const { return injector_; }
  robust::FaultInjector& fault_injector() { return injector_; }
  /// Removes and returns the injector with its fire-state intact — used
  /// when the trainer rebuilds the cluster (resume / rollback) without
  /// re-arming already-consumed faults.
  robust::FaultInjector take_fault_injector();

  /// Statically scripts a departure / rejoin (membership.h). The
  /// injector-free twin of kill-replica / rejoin-replica faults.
  void schedule_departure(int replica, std::int64_t step);
  void schedule_rejoin(int replica, std::int64_t step);

  /// Replaces the gradient codec (default: `dense`) and binds it to the
  /// current replica topology. Shape-compatible codec state (loaded from a
  /// checkpoint) survives the bind; a rejoiner's per-replica state is
  /// reset by its resync fence.
  void set_codec(std::shared_ptr<GradientCodec> codec);
  GradientCodec& codec() { return *codec_; }

  /// One synchronous step: heartbeat poll, quorum check, shard over
  /// participants, forward/backward (dropped shards skipped), weighted
  /// allreduce, hooks + optimizer step on participants only, then fenced
  /// rejoiner resync. `epoch` and `epoch_step` place the step on the
  /// trainer's clock for gradient and SDC clauses that set epoch=
  /// (robust::StepClock); callers outside a trainer pass -1. Throws
  /// ClusterDegraded below quorum, with zero participants, or when every
  /// populated shard was dropped, and ReplicaDivergence if a participant's
  /// param table drifted.
  StepResult step(exec::ExecContext& ctx, const data::Batch& batch,
                  optim::SGD& opt, const StepHooks& hooks = {},
                  std::int64_t epoch = -1, std::int64_t epoch_step = -1);

  /// Membership edges since the last call, in occurrence order.
  std::vector<MembershipTransition> drain_transitions();
  /// Health events (quorum loss) raised since the last call.
  std::vector<robust::HealthEvent> drain_health_events();

  /// Heals replica `victim` in place by a fenced full-state copy from
  /// replica `root` — the same copy as the rejoin resync (a victim whose
  /// *structure* diverged is rebuilt from a root clone first). Used by the
  /// integrity monitor when a digest vote convicts a minority replica of
  /// silent corruption: one copy, no rollback, no lost steps. Returns the
  /// bytes copied.
  std::int64_t heal_replica(int victim, int root);

  /// Makes replica `dst` a bit-exact copy of replica `src`, rebuilding it
  /// as a clone of `src` first when their structures differ. Heals and the
  /// trainer's rank-0 refresh share it; only heal_replica counts heal bytes.
  struct ReplicaCopy {
    std::int64_t bytes = 0;  ///< state bytes copied
    bool rebuilt = false;    ///< `dst` was rebuilt (old layer views are stale)
  };
  ReplicaCopy copy_replica(int src, int dst);

  std::int64_t resync_bytes_total() const { return resync_bytes_total_; }
  /// State bytes copied by integrity heals (heal_replica), cumulative.
  std::int64_t heal_bytes_total() const { return heal_bytes_total_; }
  std::int64_t steps() const { return step_counter_; }
  /// Gradient bytes per update per worker at the current live ring size.
  double update_bytes() const;
  const cost::CommModel& comm() const { return comm_; }

 private:
  /// Rebinds the codec when pruning surgery changed parameter shapes since
  /// the last bind (the trainer also rebinds after every reconfiguration,
  /// to recompact rows zeroed but not removed).
  void rebind_codec_if_stale();

  /// Modeled allreduce of `model`'s gradients over a ring of `members`, at
  /// the codec's compressed volume.
  cost::CommCost comm_cost(const graph::Network& model, int members) const;

  /// Replays topology + state onto rejoiner `r` from the survivor at rank
  /// `root` and returns the bytes of the fenced state broadcast.
  std::int64_t resync_rejoiner(int r, int root);

  /// Records a fatal kQuorumLoss event and returns it as ClusterDegraded.
  ClusterDegraded degraded(std::int64_t step_id, int live,
                           const std::string& detail);

  /// The fenced full-state copy shared by rejoin resync and integrity
  /// heals: every state tensor of `src_rank`'s replica copied bit-exactly
  /// onto `dst_rank`'s. Returns the bytes copied.
  std::int64_t copy_full_state(int src_rank, int dst_rank);

  /// Both public constructors land here: `rank0` (null when every replica
  /// is owned) followed by `owned`.
  ElasticCluster(graph::Network* rank0, std::vector<graph::Network> owned,
                 cost::CommSpec comm, MembershipConfig membership);

  std::vector<graph::Network> owned_;      ///< the replicas this cluster owns
  std::vector<graph::Network*> replicas_;  ///< by rank: borrowed or owned_
  cost::CommModel comm_;
  std::shared_ptr<GradientCodec> codec_;
  MembershipTable table_;
  robust::FaultInjector injector_;
  std::vector<MembershipTransition> transitions_;
  std::vector<robust::HealthEvent> health_events_;
  std::int64_t resync_bytes_total_ = 0;
  std::int64_t heal_bytes_total_ = 0;
  std::int64_t step_counter_ = 0;  ///< global step index for fault matching
};

}  // namespace pt::dist
