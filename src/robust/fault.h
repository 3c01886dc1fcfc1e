// Deterministic, config-driven fault injection (ISSUE 2 tentpole, part c).
//
// Every recovery path in the guardian is exercised by *injected* faults,
// never by luck: the FaultInjector corrupts gradients (NaN / bit-flip /
// scale), drops or delays simulated cluster replicas (dist::ElasticCluster
// retries a dropped shard and drops it from the allreduce if it stays
// down; a delay is modeled straggler time), and truncates or bit-flips
// checkpoint files as they are written. Faults are described by a compact
// spec string so tests, the quickstart (--fault-spec), and benchmarks
// share one vocabulary:
//
//   "<kind>[:key=value[,key=value...]][;<kind>:...]"
//
//   kinds: nan-grad | bitflip-grad | scale-grad
//          drop-replica | delay-replica
//          kill-replica | flaky-replica | rejoin-replica
//          truncate-ckpt | corrupt-ckpt | torn-ckpt
//          sdc-param | sdc-momentum
//          poison-ckpt | slow-model | flaky-output
//   keys:  epoch=<N>    fire only at global epoch N         (-1 = any)
//          step=<N>     fire only at step/iteration N       (-1 = any)
//          replica=<N>  fire only for replica N             (-1 = any)
//          count=<N>    maximum firings, 0 = unlimited      (default 1)
//          scale=<X>    gradient multiplier for scale-grad  (default 1e4)
//          delay=<X>    modeled straggler seconds           (default 5)
//          prob=<X>     per-step death probability, flaky-replica (default 0.05)
//
// (`fault_spec_help()` renders the full grammar as a table; DESIGN.md §7
// carries the same table.)
//
// Example: "nan-grad:epoch=3" poisons one gradient element at the first
// iteration of epoch 3, exactly once. Determinism: matching is pure
// arithmetic on (epoch, step, replica, firings so far); the only random
// choices (which element, which bit, whether a flaky replica dies) come
// from a pt::Rng seeded at construction, so equal spec + seed =>
// bitwise-equal faults.
//
// The elastic-membership kinds (ISSUE 5) model *permanent* replica
// failure, distinct from the transient drop/delay pair: kill-replica makes
// a replica miss every heartbeat from the matching step onward,
// flaky-replica kills it with probability `prob` per queried step, and
// rejoin-replica revives a dead replica at the matching step (the
// membership layer then runs the checkpointed-rejoin protocol).
//
// The silent-data-corruption kinds (ISSUE 7) model *quiet* failures the
// guardian's NaN/spike checks cannot see: sdc-param / sdc-momentum flip
// one bit of one parameter / momentum element *after* the optimizer step,
// retrying the bit choice until the result is finite — the corruption is
// invisible to every loud check and only the IntegrityMonitor's digest
// vote catches it. torn-ckpt truncates checkpoint files a few bytes short
// of the end, cutting through the CRC-32 footer: the partial write of a
// process that died mid-save, the case the checkpoint scrubber exists for.
//
// The serving-resilience kinds (ISSUE 10) model checkpoint and runtime
// failures the CRC scrub *cannot* see: poison-ckpt overwrites a network's
// classifier head with NaN (or, with scale=, finite seeded garbage) before
// the checkpoint is saved, so the file's CRC-32 footer is perfectly valid
// yet every logit it produces is corrupt — only the serve::CanaryGate's
// shadow execution catches it. slow-model inflates a generation's modeled
// batch service ticks (a latency regression on the modeled clock, keyed
// epoch=generation / step=batch id), and flaky-output injects a quiet NaN
// into one logit of a served batch — the post-swap GenerationHealth breach
// that triggers automatic rollback.
#pragma once

#include <cstdint>
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

std::string to_string(FaultSpec::Kind kind);

/// Parses the spec grammar above. Throws std::invalid_argument with the
/// offending token on malformed input. "" yields an empty list.
std::vector<FaultSpec> parse_fault_specs(const std::string& text);

/// The full spec grammar rendered as one human-readable table (every kind
/// with its semantics and keys). Printed by `quickstart --fault-spec help`;
/// DESIGN.md §7 carries the same table.
std::string fault_spec_help();

/// Rejects every clause of `text` whose keys can never match in a training
/// run with `replicas` workers (checkpoints written iff `checkpointing`):
/// replica kinds on a single device, serve kinds (no trainer consumes
/// them), checkpoint kinds without checkpoints, epoch= on the kinds matched
/// on a step clock (replica and SDC kinds everywhere, gradient kinds on the
/// cluster), step= or replica= on checkpoint kinds, replica= on a single
/// device, and replica= naming a worker that does not exist. It does not
/// check that a step or epoch key falls inside the run. Throws
/// std::invalid_argument naming the clause. TrainConfig::validate() calls
/// this with the configured run shape.
void validate_training_faults(const std::string& text, int replicas,
                              bool checkpointing);

class FaultInjector {
 public:
  /// Disarmed injector: every query is a cheap no-op returning "no fault".
  FaultInjector() = default;

  FaultInjector(std::vector<FaultSpec> specs, std::uint64_t seed);

  /// Convenience: parse + construct. Throws on malformed spec text.
  static FaultInjector from_string(const std::string& text, std::uint64_t seed);

  bool armed() const { return !specs_.empty(); }

  /// Applies every matching gradient fault to `net`'s parameter gradients.
  /// Called between backward() and the optimizer step. `replica` is -1 in
  /// single-device training; dist::ElasticCluster passes the replica index
  /// so replica-targeted specs corrupt exactly one worker's local gradients.
  /// Returns true if at least one fault fired.
  bool corrupt_gradients(graph::Network& net, std::int64_t epoch,
                         std::int64_t step, int replica = -1);

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
  /// finite — the corruption sails past every NaN/Inf scan. Called *after*
  /// the optimizer step (single device: the trainer; cluster: after the
  /// post-update hooks), so nothing overwrites it before the next digest
  /// check. Returns true if a fault fired.
  bool corrupt_state(graph::Network& net, std::int64_t step, int replica = -1);

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

  /// True when `a` still has budget and matches the coordinates; -1 spec
  /// fields are wildcards.
  static bool matches(const Armed& a, std::int64_t epoch, std::int64_t step,
                      int replica);

  std::vector<Armed> specs_;
  Rng rng_{0x0fa1u};
};

}  // namespace pt::robust
