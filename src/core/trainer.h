// PruneTrainer: the paper's Algorithm 1 plus the baseline training
// protocols it is compared against.
//
// Policies:
//  - kDense:      plain SGD training, no regularization, no pruning.
//  - kPruneTrain: group-lasso regularization from iteration 0 (lambda set
//                 by Eq. 3 at the first forward), periodic reconfiguration
//                 every `reconfig_interval` epochs, optional dynamic
//                 mini-batch adjustment.
//  - kSSL:        Wen et al.'s protocol: first train the dense model to
//                 completion, then train again with group lasso on the
//                 dense architecture, pruning only at the very end. Costs
//                 roughly 3x PruneTrain's compute (Sec. 5.2).
//  - kOneShot:    Alvarez & Salzmann's: regularize from scratch but
//                 reconfigure exactly once, at `one_shot_epoch` (Fig. 2c).
//
// Every epoch records the cost metrics the paper's figures are drawn from:
// FLOPs/iteration, training FLOPs spent, BN DRAM traffic, memory context,
// allreduce volume, modeled GPU time, and wall-clock.
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/dynamic_batch.h"
#include "cost/comm.h"
#include "dist/elastic.h"
#include "exec/context.h"
#include "cost/device.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "graph/network.h"
#include "prune/reconfigure.h"
#include "prune/sparsity_monitor.h"
#include "prune/strategy.h"
#include "robust/fault.h"
#include "robust/health.h"
#include "robust/integrity.h"
#include "robust/recovery.h"
#include "telemetry/epoch_stats.h"
#include "telemetry/record.h"

namespace pt::core {

struct PhaseSpec;  // one training phase of the run schedule (trainer.cpp)

enum class PrunePolicy { kDense, kPruneTrain, kSSL, kOneShot };

std::string to_string(PrunePolicy policy);

struct TrainConfig {
  std::int64_t epochs = 40;
  std::int64_t batch_size = 32;
  float base_lr = 0.1f;
  float momentum = 0.9f;
  float weight_decay = 1e-4f;
  /// Epochs at which the LR drops by 10x (the paper's step schedule).
  std::vector<std::int64_t> lr_milestones = {};

  PrunePolicy policy = PrunePolicy::kPruneTrain;

  /// Sparsification strategy, by prune::StrategyRegistry name. The default
  /// reproduces the pre-strategy trainer bitwise; the zoo adds "dst" and
  /// "channel_prop" (src/prune/strategy_zoo.h).
  std::string strategy = "group_lasso";
  /// Per-strategy parameters (string key/value; see `--strategy help` or
  /// StrategyRegistry::help() for each strategy's keys and defaults). The
  /// group_lasso knobs are "ratio" (Eq. 3 target penalty ratio), "boost"
  /// (proxy-scale lambda multiplier, see DESIGN.md), "proximal" (group
  /// soft-threshold update after the optimizer step, instead of a penalty
  /// gradient before it) and "size_normalized" (the Sec. 4.1
  /// per-group-size penalty ablation).
  std::map<std::string, std::string> strategy_params;

  /// Gradient wire format for the simulated allreduce, by
  /// dist::CodecRegistry name ("dense", "twobit", "live_channel"; see
  /// `--codec help`). Only meaningful with replicas > 1 — validate()
  /// rejects a non-dense codec on a single device. The dense default
  /// reproduces the pre-codec exchange bitwise.
  std::string codec = "dense";
  /// Per-codec parameters, validated against the codec's ParamSpec set
  /// (a parameter the configured codec does not declare is an error).
  std::map<std::string, std::string> codec_params;

  /// Run one final prune+reconfigure pass after training so the reported
  /// model is fully compacted (the default). Analyses that sweep pruning
  /// thresholds over the trained weights (e.g. Fig. 6) disable this to
  /// keep the full channel index space.
  bool final_reconfigure = true;
  std::int64_t reconfig_interval = 5; ///< epochs between reconfigurations
  std::int64_t one_shot_epoch = 20;   ///< kOneShot reconfiguration point
  float threshold = 1e-4f;            ///< zeroing threshold (paper: 1e-4)
  /// Extra epochs trained after the main run *without* group-lasso
  /// regularization, at the final (decayed) learning rate. The paper uses
  /// this to recover ~0.3% accuracy on ImageNet (Sec. 5.1); no pruning or
  /// reconfiguration happens during fine-tuning.
  std::int64_t fine_tune_epochs = 0;

  /// Hot-path threads for the trainer's exec::ExecContext: 1 (default) is
  /// fully serial, 0 auto-detects (hardware_concurrency). Any value yields
  /// bitwise-identical training trajectories — the pool's static
  /// partitioning guarantees it (tests/exec_test.cpp asserts this).
  std::int64_t num_threads = 1;

  DynamicBatchConfig dynamic_batch;

  cost::CommSpec comm;                      ///< allreduce accounting
  cost::DeviceSpec device = cost::DeviceSpec::titan_xp();  ///< modeled time

  std::uint64_t shuffle_seed = 7;
  bool record_sparsity = false;  ///< per-epoch channel max-|w| histories
  /// Evaluate test accuracy every k epochs (the final epoch is always
  /// evaluated); other epochs report the last measured value.
  std::int64_t eval_interval = 1;

  /// Directory for crash-safe checkpoints. Empty (the default) disables
  /// checkpointing. When set, the trainer writes `ckpt-epoch-<N>.bin` plus
  /// a rolling `ckpt-latest.bin` every `checkpoint_interval` epochs, each
  /// via write-temp-then-rename with a CRC-32 footer.
  std::string checkpoint_dir;
  std::int64_t checkpoint_interval = 1;  ///< epochs between checkpoint saves
  /// Path of a checkpoint file to resume from. The trainer replaces the
  /// network with the checkpoint's (reconfigured) model, restores optimizer
  /// momentum, BN statistics, shuffle-RNG state, epoch counters, calibrated
  /// lambda, and partial epoch statistics, then continues the schedule from
  /// the saved epoch. Resuming is bitwise-deterministic: the remaining
  /// epochs reproduce an uninterrupted run exactly (wall-clock aside).
  std::string resume_from;

  // --- Training guardian (src/robust) ---

  /// Run the HealthMonitor after every epoch: NaN/Inf loss, loss-spike
  /// divergence, non-finite gradients/params/BN statistics, and
  /// pruning-collapse warnings before each reconfiguration. Events are
  /// logged and recorded; they only interrupt the run when rollback
  /// recovery is enabled (recovery.max_rollbacks > 0).
  bool health_checks = true;
  robust::HealthConfig health;  ///< monitor thresholds

  /// Rollback recovery. recovery.max_rollbacks > 0 enables it: a fatal
  /// health event rolls the run back to the last good checkpoint (requires
  /// checkpoint_dir), cuts the LR by recovery.lr_cut per attempt, waits a
  /// modeled capped-exponential backoff, and retries — at most that many
  /// times, after which run() writes a diagnostic checkpoint
  /// (ckpt-diagnostic.bin) and throws robust::TrainingAborted.
  robust::RecoveryConfig recovery;

  /// Reconfiguration survival floor: no channel variable is ever sliced
  /// below this many channels (pruning-collapse guard; 1 = historical).
  std::int64_t prune_min_channels = 1;

  /// Fault-injection spec (robust::parse_fault_specs grammar), "" = none.
  /// Deterministic given the spec (the injector's seed is a constant);
  /// used to exercise every recovery path in tests and demos.
  std::string fault_spec;

  // --- Silent-data-corruption defense (src/robust/integrity) ---

  /// > 0 arms the IntegrityMonitor: every this-many steps the trainer
  /// digests the named state (params + momentum + buffers + strategy
  /// state, CRC-32 per tensor). The per-replica digests are
  /// majority-voted — a minority replica is healed in place by a full
  /// state copy from a voted-healthy replica (no rollback burned); a vote
  /// with no strict majority raises a fatal kSdcNoQuorum event for the
  /// guardian. Requires replicas > 1: a vote of one compares nothing.
  /// 0 (the default) disables the monitor.
  std::int64_t sdc_check_interval = 0;

  /// > 0 bounds the retained checkpoint generation chain: only the newest
  /// this-many numbered checkpoints (ckpt-epoch-<N>.bin) are kept on disk,
  /// and every save triggers a scrub pass that re-validates each retained
  /// generation's CRC-32 footer on the execution context. A rollback then
  /// cascades past generations the scrubber proved corrupt (torn writes,
  /// bit rot) without paying a load attempt. 0 (the default) retains every
  /// generation, the historical behavior; the scrubber still runs whenever
  /// checkpoint_dir is set.
  std::int64_t keep_checkpoints = 0;

  // --- Elastic data-parallel training (src/dist) ---

  /// Every run trains on a simulated elastic cluster of this many
  /// in-process replicas (dist::ElasticCluster): batches shard over the
  /// live set, gradients allreduce deterministically, and membership
  /// faults (kill/flaky/rejoin-replica in fault_spec) exercise permanent
  /// failure and fenced rejoin. 1 (the default) is plain
  /// single-device training: a one-replica cluster whose only replica is
  /// the trained network itself.
  std::int64_t replicas = 1;
  /// The cluster's membership knobs: the quorum (a step below
  /// ceil(membership.min_live_fraction * replicas) live members
  /// checkpoints-and-aborts via the guardian, robust::TrainingAborted
  /// carrying a kQuorumLoss event), the missed acks before a replica is
  /// DEAD, and whether DEAD replicas may rejoin (validate() rejects a
  /// rejoin-replica fault that cannot fire under these).
  dist::MembershipConfig membership;

  // --- Telemetry (src/telemetry) ---

  /// Run-record directory. Empty (the default) leaves telemetry untouched.
  /// When set, the trainer enables the process-wide telemetry switch and
  /// per-layer network profiling, writes `<metrics_dir>/manifest.json`
  /// before the first epoch, and appends one self-describing JSONL line to
  /// `<metrics_dir>/epochs.jsonl` after every epoch (O_APPEND + fsync; a
  /// torn tail from a crash is truncated before the next append).
  std::string metrics_dir;
  std::string run_name = "run";  ///< recorded in the manifest

  /// Throws std::invalid_argument (with the offending field named) when a
  /// field combination cannot produce a valid run. Called by PruneTrainer's
  /// constructor, so a bad config fails fast rather than mid-training.
  void validate() const;
};

/// Per-epoch statistics; the struct and its field list (for_each_field)
/// live in telemetry/epoch_stats.h, so an epoch record can be one.
using EpochStats = telemetry::EpochStats;
using telemetry::for_each_field;

struct TrainResult {
  std::vector<EpochStats> epochs;
  double final_test_acc = 0;
  double total_train_flops = 0;
  double total_bn_traffic = 0;
  double total_comm_bytes = 0;
  double total_gpu_time_modeled = 0;
  double total_wall_seconds = 0;
  double final_inference_flops = 0;
  std::int64_t layers_removed = 0;     ///< conv layers removed by dead branches
  std::int64_t final_channels = 0;
  float lambda = 0;                    ///< the calibrated penalty coefficient
};

/// Calls f(name, field) for TrainResult's scalar fields, in checkpoint
/// trainer-section order (the per-epoch stats follow them there).
template <class S, class F>
  requires std::same_as<std::remove_const_t<S>, TrainResult>
void for_each_field(S& r, F&& f) {
  f("final_test_acc", r.final_test_acc);
  f("total_train_flops", r.total_train_flops);
  f("total_bn_traffic", r.total_bn_traffic);
  f("total_comm_bytes", r.total_comm_bytes);
  f("total_gpu_time_modeled", r.total_gpu_time_modeled);
  f("total_wall_seconds", r.total_wall_seconds);
  f("final_inference_flops", r.final_inference_flops);
  f("layers_removed", r.layers_removed);
  f("final_channels", r.final_channels);
  f("lambda", r.lambda);
}

class PruneTrainer {
 public:
  /// Trains `net` in place on `dataset`. The network must match the
  /// dataset's input geometry and class count.
  PruneTrainer(graph::Network& net, const data::SyntheticImageDataset& dataset,
               TrainConfig cfg);

  /// Runs the configured schedule. With recovery.max_rollbacks > 0 this is
  /// a retry loop: a fatal health event rolls the run back to the last good
  /// checkpoint and re-enters the schedule (see TrainConfig); when the
  /// budget is exhausted a diagnostic checkpoint is written and
  /// robust::TrainingAborted is thrown.
  TrainResult run();

  /// Test-set top-1 accuracy of the current model.
  double evaluate();

  const prune::SparsityMonitor* sparsity_monitor() const {
    return monitor_ ? monitor_.get() : nullptr;
  }

  /// What the guardian did this run: rollbacks, injected faults (the
  /// cluster injector's firings), modeled backoff, every health event.
  /// Zero-valued when recovery never engaged.
  const robust::RecoveryReport& recovery_report() const;

  /// The SDC monitor (cfg.sdc_check_interval > 0), for checks/heals/bytes
  /// statistics; nullptr when disabled.
  const robust::IntegrityMonitor* integrity_monitor() const {
    return integrity_ ? integrity_.get() : nullptr;
  }

  /// The checkpoint generation scrubber (cfg.checkpoint_dir set), for the
  /// generation ledger; nullptr when checkpointing is off.
  const robust::CheckpointScrubber* checkpoint_scrubber() const {
    return scrubber_ ? scrubber_.get() : nullptr;
  }

  /// The execution context every forward/backward of this trainer runs on
  /// (TrainConfig::num_threads pool + workspace buffer). Exposed so tests
  /// and tools can read pool/workspace statistics.
  exec::ExecContext& exec_context() { return *ctx_; }
  const exec::ExecContext& exec_context() const { return *ctx_; }

 private:
  /// One end-to-end pass over the configured schedule; throws
  /// robust::FatalHealthError when the monitor flags a fatal event and
  /// recovery is enabled. run() wraps this in the rollback-retry loop.
  TrainResult run_attempt();

  /// Executes a kRollback decision: resolves the rollback target through
  /// the scrubber's generation ledger (cascading past corrupt files, with
  /// a kCheckpointCascade event when it had to), restores it, applies the
  /// recovery LR scale and rebuilds the cluster around the injector's
  /// fire-state. Throws robust::TrainingAborted if no loadable checkpoint
  /// exists.
  void rollback(robust::RecoveryPolicy::Decision decision,
                const robust::HealthEvent& cause);

  /// Digest-vote the cluster's live replicas (called after each elastic
  /// step when due): a convicted minority is healed in place; a no-quorum
  /// split escalates as a fatal kSdcNoQuorum when recovery is enabled.
  void run_integrity_check();

  /// Appends `ev` to the guardian report and logs it ("guardian: " +
  /// describe() + `note`) at error level when fatal, warning otherwise.
  void record_event(const robust::HealthEvent& ev,
                    const std::string& note = "");

  /// Best-effort ckpt-diagnostic.bin: the broken model plus a "guardian"
  /// section holding the serialized RecoveryReport. Never throws.
  void save_diagnostic_checkpoint();

  /// With recovery enabled, guarantees a rollback target exists before the
  /// first epoch runs (a fault in epoch 0 must have somewhere to go).
  void ensure_initial_checkpoint(const TrainResult& result, float lambda);
  /// One full pass over the training set at the current batch size, for
  /// every replica count: each batch is one cluster step (sharded over the
  /// live set), fills loss/acc and the modeled comm cost into `stats`,
  /// syncs *net_ from the first live replica at the end, and converts
  /// ReplicaDivergence into the guardian pathway (ClusterDegraded
  /// propagates to run()). `lambda` == 0 disables the calibrated penalty;
  /// `sparsify` is the phase flag handed to the strategy's step hooks.
  void train_epoch(EpochStats& stats, float lambda, float lr, bool sparsify);

  /// (Re)creates the elastic cluster with fresh membership (all HEALTHY):
  /// rank 0 borrows *net_, ranks 1.. are bit-exact clones of it, and
  /// `injector` keeps whatever fire-state it carries. Construction and
  /// rollback land here; a mid-run reconfiguration must NOT (it would
  /// resurrect the dead — the surgery is applied in place instead).
  void rebuild_cluster(robust::FaultInjector injector);
  /// Copies the trained state from the first live replica into *net_
  /// (evaluation, health checks, checkpoints, and cost models all read
  /// *net_) when that replica is not rank 0 — *net_ itself.
  void sync_net_from_cluster();
  /// The channel-union surgery at cfg_.threshold: on *net_ (rank 0), then on
  /// every other replica whose state is current (live members and freshly
  /// resynced rejoiners; stale failed replicas keep their old topology
  /// until a rejoin resync replays the new one), a codec rebind, and — when
  /// the topology changed — the strategy's on_reconfigured and a workspace
  /// rebuild. Adds the removed conv layers to `result`.
  prune::ReconfigStats reconfigure(TrainResult& result);
  /// Eq. 3: runs a 32-sample probe batch (drawn from the shared shuffle
  /// RNG) forward without training and sets result.lambda from its
  /// classification loss and the strategy's regularization sum.
  float calibrate_lambda(TrainResult& result);

  /// Appends one epochs.jsonl line: the epoch's stats, the reconfiguration
  /// outcome, per-layer FLOPs + measured times, sparsity densities, and a
  /// snapshot of the cumulative telemetry state. Runs after the epoch's
  /// span closed and its checkpoint (if due) was saved. Resets the network's
  /// execution profile afterwards (layer times are per-epoch).
  void emit_epoch_record(const EpochStats& stats,
                         const telemetry::ReconfigRecord& reconfig);

  /// Training phase `phase` of the schedule from epoch `start` on:
  /// per-epoch strategy hooks, lambda calibration, health checks,
  /// strategy-proposed reconfiguration, cost accounting, and checkpoints.
  void run_phase(TrainResult& result, const PhaseSpec& spec,
                 std::int64_t phase, std::int64_t start, float& lambda);

  /// Writes ckpt-epoch-<N>.bin + ckpt-latest.bin into cfg_.checkpoint_dir:
  /// the reconfigured model (via ckpt::Checkpoint::capture) plus a "trainer"
  /// section holding counters, lambda, lr scaling, shuffle-RNG state, and
  /// the partial TrainResult accumulated so far.
  void save_checkpoint(const TrainResult& result, std::int64_t phase,
                       std::int64_t phase_epochs_done, float lambda);

  /// Loads a checkpoint file (cfg_.resume_from, or a rollback target):
  /// replaces *net_ with the checkpointed model and sets resume_ from the
  /// trainer section.
  void load_checkpoint_file(const std::string& path);

  /// Where a loaded checkpoint left the schedule, and what it carried.
  struct ResumePoint {
    std::int64_t phase = 0;        ///< schedule phase of the checkpoint
    std::int64_t epochs_done = 0;  ///< epochs completed in that phase
    float lambda = -1.f;           ///< lambda at save time (-1: uncalibrated)
    TrainResult result;            ///< partial statistics accumulated so far
  };

  /// Calls f(name, field) for the checkpoint's trainer section in byte
  /// order: the schedule position, the trainer's counters, lambda, the lr
  /// scale, the cached test accuracy, the shuffle-RNG state, TrainResult's
  /// scalars and the epoch list. save_checkpoint and load_checkpoint_file
  /// both walk it.
  template <class F>
  void for_each_section_field(ResumePoint& at, RngState& rng, F&& f);

  graph::Network* net_;
  const data::SyntheticImageDataset* dataset_;
  TrainConfig cfg_;
  /// Built from cfg_.num_threads before any network execution; the
  /// workspace buffer is rebuilt whenever the model's shapes change
  /// (reconfiguration, checkpoint restore) so its sizing tracks the
  /// current hot loop. unique_ptr: the context is neither copyable nor
  /// movable (worker threads hold `this`).
  std::unique_ptr<exec::ExecContext> ctx_;
  data::DataLoader loader_;
  /// The configured sparsification strategy (never null). Constructed from
  /// the registry before any resume load so checkpointed strategy state
  /// lands in the right object.
  std::unique_ptr<prune::Strategy> strategy_;
  Shape input_shape_;
  std::int64_t batch_size_;
  float lr_scale_ = 1.f;  ///< cumulative dynamic-batch LR scaling
  std::unique_ptr<prune::SparsityMonitor> monitor_;
  std::int64_t epoch_counter_ = 0;  ///< global epoch index across phases
  double last_test_acc_ = 0;        ///< cached between eval_interval epochs

  /// The last loaded checkpoint's schedule position (resume_from or a
  /// rollback); every later attempt re-enters the schedule there.
  std::optional<ResumePoint> resume_;

  /// The elastic cluster every epoch steps (never null once constructed).
  /// Its rank 0 is *net_, borrowed: a one-replica cluster holds no second
  /// copy of the model. The cluster's injector is the run's only one: the
  /// cluster queries the step and membership kinds, save_checkpoint the
  /// checkpoint kinds, and its total_fires() is the report's
  /// faults_injected.
  std::unique_ptr<dist::ElasticCluster> cluster_;
  /// Gradient codec shared with the cluster; null when cfg_.replicas == 1,
  /// where the cluster's own dense codec exchanges (and checkpoints carry
  /// no codec section).
  /// Constructed from the registry before any resume load (like strategy_)
  /// so checkpointed codec state — error-feedback residuals, live-row
  /// masks — lands in the right object, and survives cluster rebuilds so
  /// rollback replay carries the residuals it had at save time.
  std::shared_ptr<dist::GradientCodec> codec_;

  // Guardian state (src/robust).
  std::unique_ptr<robust::HealthMonitor> health_; ///< null when checks off
  /// SDC digest-vote monitor; null when sdc_check_interval == 0.
  std::unique_ptr<robust::IntegrityMonitor> integrity_;
  /// Checkpoint generation chain + CRC scrubber; null when checkpoint_dir
  /// is empty.
  std::unique_ptr<robust::CheckpointScrubber> scrubber_;
  /// faults_injected is read from the cluster's injector by
  /// recovery_report(), which every reader goes through.
  mutable robust::RecoveryReport report_;
  float recovery_lr_scale_ = 1.f;       ///< lr_cut^rollbacks on retries
  bool initial_ckpt_saved_ = false;

  /// Epoch-record emitter (cfg_.metrics_dir); null when telemetry is off.
  std::unique_ptr<telemetry::RunRecorder> recorder_;
};

}  // namespace pt::core
