// Deterministic, config-driven fault injection.
//
// Every recovery path in the guardian is exercised by *injected* faults,
// never by luck. A fault spec string describes them, so tests, the
// quickstart and the serving runtime (--fault-spec) and the benchmarks
// share one vocabulary:
//
//   "<kind>[:key=value[,key=value...]][;<kind>:...]"
//
// The kinds live in one table in fault.cpp (fault_kinds()): each row holds
// a kind's name, its consumer (the runtime hook that queries it), the keys
// that consumer reads and its help text. Parsing, to_string(),
// fault_spec_help() and the run-shape checks (validate_training_faults,
// validate_serving_faults) all read that table; `--fault-spec help`
// prints it. A clause that sets a key its kind does not read is rejected
// at parse time.
//
// Determinism: matching is pure arithmetic on (epoch, step, replica,
// firings so far); the only random choices (which element, which bit,
// whether a flaky replica dies) come from one pt::Rng seeded at
// construction, so equal spec + seed => bitwise-equal faults.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "graph/network.h"
#include "util/rng.h"

namespace pt::robust {

struct FaultSpec {
  enum class Kind : std::uint8_t {
    kNanGrad = 0,      ///< set one gradient element to quiet NaN
    kBitflipGrad = 1,  ///< flip one random bit of one gradient element
    kScaleGrad = 2,    ///< multiply every gradient by `scale`
    kDropReplica = 3,  ///< replica's shard attempt fails (retry, then drop)
    kDelayReplica = 4, ///< replica straggles `delay_seconds` (modeled)
    kTruncateCkpt = 5, ///< truncate a checkpoint file to half its size
    kCorruptCkpt = 6,  ///< flip one random byte of a checkpoint file
    kKillReplica = 7,  ///< permanent death: misses every heartbeat onward
    kFlakyReplica = 8, ///< dies with probability `prob` per queried step
    kRejoinReplica = 9,///< revive a dead replica at the matching step
    kSdcParam = 10,    ///< finite in-place bitflip of one parameter element
    kSdcMomentum = 11, ///< finite in-place bitflip of one momentum element
    kTornCkpt = 12,    ///< truncate checkpoint files through the CRC footer
    kPoisonCkpt = 13,  ///< CRC-valid checkpoint with NaN/garbage tensors
    kSlowModel = 14,   ///< inflate a generation's modeled service ticks
    kFlakyOutput = 15, ///< inject a non-finite logit into a served batch
  };

  Kind kind = Kind::kNanGrad;
  std::int64_t epoch = -1;      ///< -1 = any epoch
  std::int64_t step = -1;       ///< -1 = any step / iteration
  int replica = -1;             ///< -1 = any replica (cluster kinds only)
  std::int64_t count = 1;       ///< max firings; 0 = unlimited
  double scale = 1e4;           ///< kScaleGrad multiplier
  double delay_seconds = 5.0;   ///< kDelayReplica modeled stall
  double prob = 0.05;           ///< kFlakyReplica per-step death probability
  /// True when the spec text set scale= explicitly. poison-ckpt uses it to
  /// pick NaN (unset) vs finite-garbage (set) tensors; slow-model uses it
  /// to override its default inflation factor.
  bool scale_set = false;
};

/// Every key of the grammar, comma-separated; a kind reads a subset.
inline constexpr const char* kFaultKeys =
    "epoch,step,replica,count,scale,delay,prob";

/// The runtime hook that queries a kind; each kind has exactly one.
enum class FaultConsumer : std::uint8_t {
  kStepHook,        ///< ElasticCluster::step: gradient and SDC corruption
  kMembership,      ///< the cluster's heartbeat poll and shard attempts
  kCheckpointSave,  ///< PruneTrainer::save_checkpoint's written files
  kServeBatch,      ///< serve::ServeRuntime's batch execution
  kPoisonHarness,   ///< poison_network, called by a harness before a save
};

/// One row of the fault-kind table.
struct FaultKindInfo {
  FaultSpec::Kind kind;
  const char* name;        ///< the spec spelling
  FaultConsumer consumer;
  const char* keys;        ///< the keys its consumer reads, comma-separated
  const char* help;        ///< fault_spec_help()'s semantics column

  bool reads(const std::string& key) const;
};

/// Every kind, one row each, in fault_spec_help() order.
const std::vector<FaultKindInfo>& fault_kinds();
const FaultKindInfo& fault_kind(FaultSpec::Kind kind);

std::string to_string(FaultSpec::Kind kind);

/// Parses the spec grammar above. Throws std::invalid_argument with the
/// offending token on malformed input, and naming the clause and the key
/// when a clause sets a key its kind does not read. "" yields an empty
/// list.
std::vector<FaultSpec> parse_fault_specs(const std::string& text);

/// The full spec grammar rendered from the kind table as one
/// human-readable table (every kind with its semantics and keys). Printed
/// by `--fault-spec help`.
std::string fault_spec_help();

/// Rejects every clause of `text` that can never fire in a training run of
/// `run_epochs` epochs with `replicas` workers (checkpoints written iff
/// `checkpointing`): a kind whose consumer is absent from the run (membership
/// kinds on a single device, serve and poison-harness kinds, checkpoint
/// kinds without checkpoints), an epoch= past the end of the run (a
/// gradient or SDC epoch is 0-based, a checkpoint is matched after the
/// epoch counter advances, so 0..run_epochs), replica= on a single device
/// or naming a worker that does not exist, and a rejoin-replica clause
/// when `allow_rejoin` is false or when no kill-replica / flaky-replica
/// clause can kill its replica at an earlier step. It does not check that
/// a step key falls inside the run. Throws std::invalid_argument naming
/// the clause. TrainConfig::validate() calls this with the configured run
/// shape.
void validate_training_faults(const std::string& text, int replicas,
                              bool checkpointing, std::int64_t run_epochs,
                              bool allow_rejoin = true);

/// Rejects every clause of `text` that the serving runtime never queries:
/// only the kServeBatch kinds have a consumer there. Throws
/// std::invalid_argument naming the clause. ServeConfig::validate() calls
/// this.
void validate_serving_faults(const std::string& text);

/// A training step's place on the two clocks a gradient or SDC clause can
/// name. A clause that sets epoch= matches (epoch, epoch_step): step S of
/// epoch E. A clause without it matches `step`, the cluster's global step
/// counter. Callers outside a trainer pass -1 for epoch and epoch_step.
struct StepClock {
  std::int64_t epoch = -1;       ///< the trainer's global epoch
  std::int64_t epoch_step = -1;  ///< the step within that epoch
  std::int64_t step = -1;        ///< the cluster's global step counter
};

class FaultInjector {
 public:
  /// Disarmed injector: every query is a cheap no-op returning "no fault".
  FaultInjector() = default;

  FaultInjector(std::vector<FaultSpec> specs, std::uint64_t seed);

  /// Convenience: parse + construct. Throws on malformed spec text.
  static FaultInjector from_string(const std::string& text, std::uint64_t seed);

  bool armed() const { return !specs_.empty(); }

  /// Applies every matching gradient fault to `net`'s parameter gradients.
  /// dist::ElasticCluster calls it between backward() and the gradient
  /// exchange, with the replica index, so replica-targeted specs corrupt
  /// exactly one worker's local gradients. Returns true if at least one
  /// fault fired.
  bool corrupt_gradients(graph::Network& net, const StepClock& clock,
                         int replica = -1);

  /// True when a kDropReplica fault fires for (replica, step). Each query
  /// consumes one firing, so a count=1 drop fails the first attempt and
  /// lets the retry succeed.
  bool drop_replica(int replica, std::int64_t step);

  /// Modeled straggler seconds for (replica, step); 0 when no delay fault
  /// fires. Consumes one firing per positive answer.
  double replica_delay(int replica, std::int64_t step);

  /// True when a kKillReplica fault fires for (replica, step): the replica
  /// dies permanently. The membership layer latches the answer — the
  /// injector consumes one firing and is never asked about that replica
  /// again.
  bool kill_replica(int replica, std::int64_t step);

  /// True when a kFlakyReplica fault decides (replica, step) dies: each
  /// matching spec draws one Bernoulli(prob) variate from the seeded RNG.
  /// Deterministic given seed + query order (the membership layer queries
  /// replicas in rank order every step). Consumes one firing per death.
  bool flaky_replica(int replica, std::int64_t step);

  /// True when a kRejoinReplica fault fires for (replica, step): a dead
  /// replica should begin the rejoin protocol. Consumes one firing.
  bool rejoin_replica(int replica, std::int64_t step);

  /// Applies matching sdc-param / sdc-momentum faults to `net`: one random
  /// bit of one random element of one random parameter (or its momentum)
  /// is flipped in place, retrying the bit choice until the value stays
  /// finite — the corruption sails past every NaN/Inf scan. The cluster
  /// calls it *after* the optimizer step and the update hooks, so nothing
  /// overwrites it before the next digest check. Returns true if a fault
  /// fired.
  bool corrupt_state(graph::Network& net, const StepClock& clock,
                     int replica = -1);

  /// Applies a matching checkpoint fault to every path in `paths` (they
  /// are one logical save: the numbered file plus ckpt-latest.bin).
  /// Consumes at most one firing per call. Returns true if a fault fired.
  bool corrupt_checkpoint_files(const std::vector<std::string>& paths,
                                std::int64_t epoch);

  /// Applies a matching poison-ckpt fault to `net` *before* it is saved:
  /// the classifier head (last parameter tensors) is overwritten with quiet
  /// NaN — no ReLU is left downstream to squash it, so every logit goes
  /// non-finite — or, when the spec set scale=, with finite seeded garbage
  /// at that magnitude (wrong argmaxes only reference-disagreement can
  /// catch). The convolutional body is untouched, so materialization and
  /// the CRC-32 footer both stay healthy: this is the silent-failure class
  /// the serve::CanaryGate exists for. `generation` matches the spec's
  /// epoch key. Returns true if a fault fired.
  bool poison_network(graph::Network& net, std::int64_t generation);

  /// Modeled service-tick multiplier for a batch served by `generation`
  /// (spec epoch key) as global batch `batch` (spec step key); 1.0 when no
  /// slow-model fault fires. Consumes one firing per inflated batch.
  double slow_model_factor(std::int64_t generation, std::int64_t batch);

  /// Applies a matching flaky-output fault to `logits`: one random element
  /// goes quiet-NaN. Keyed like slow-model (epoch=generation, step=batch).
  /// Returns true if a fault fired.
  bool corrupt_output(Tensor& logits, std::int64_t generation,
                      std::int64_t batch);

  /// Total firings across all specs so far.
  std::int64_t total_fires() const;

 private:
  struct Armed {
    FaultSpec spec;
    std::int64_t fires = 0;
  };

  /// The match-and-consume loop every query shares: calls `act(spec)` for
  /// each clause of a kind in `kinds` that still has budget and matches
  /// (`clock`, `replica`) (-1 spec fields are wildcards; a clause that sets
  /// epoch= matches (clock.epoch, clock.epoch_step), any other clause
  /// matches clock.step). A clause whose `act` returns true consumes one
  /// firing; with `once`, the first such clause ends the loop. Returns true
  /// if any clause fired.
  template <class Act>
  bool fire(std::initializer_list<FaultSpec::Kind> kinds,
            const StepClock& clock, int replica, bool once, Act&& act);

  std::vector<Armed> specs_;
  Rng rng_{0x0fa1u};
};

}  // namespace pt::robust
