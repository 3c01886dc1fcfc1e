// Rollback-to-checkpoint recovery policy (ISSUE 2 tentpole, part b).
//
// When the HealthMonitor raises a fatal event, the RecoveryPolicy decides
// what the trainer does next: roll back to the last good checkpoint (the
// PR 1 crash-safe ckpt API), cut the learning rate by a configurable
// factor, optionally skip the reconfiguration that was replayed into the
// fault, and retry — with capped exponential backoff (modeled, not slept:
// the simulated cluster charges time, it never blocks the process). When
// the rollback budget is exhausted the run aborts gracefully: a final
// *diagnostic* checkpoint of the broken state is written so the failure
// can be examined offline, and TrainingAborted is thrown.
//
// The policy is pure bookkeeping — it never touches the network or the
// filesystem itself; core::PruneTrainer executes its decisions.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "robust/health.h"

namespace pt::robust {

class CheckpointScrubber;  // integrity.h

struct RecoveryConfig {
  std::int64_t max_rollbacks = 3;  ///< retry budget for the whole run
  float lr_cut = 0.5f;             ///< LR multiplier applied per rollback
  double backoff_base = 2.0;       ///< exponential backoff base (>= 1)
  double backoff_cap = 60.0;       ///< modeled wait ceiling, seconds

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Everything the guardian did during one run, for reporting and tests.
struct RecoveryReport {
  std::int64_t rollbacks = 0;        ///< recoveries performed
  std::int64_t faults_injected = 0;  ///< FaultInjector firings observed
  double backoff_seconds = 0;        ///< total modeled backoff wait
  bool aborted = false;              ///< rollback budget exhausted
  std::string last_checkpoint;       ///< file the last rollback restored
  std::vector<HealthEvent> events;   ///< every event, warnings included
};

/// Byte-serialization of a RecoveryReport, used for the "guardian" section
/// of diagnostic checkpoints (and their offline inspection in tests).
std::vector<std::uint8_t> serialize_report(const RecoveryReport& report);
RecoveryReport deserialize_report(const std::vector<std::uint8_t>& bytes);

/// Thrown by PruneTrainer::run() when recovery gives up; carries the final
/// report (the diagnostic checkpoint holds the same data on disk).
class TrainingAborted : public std::runtime_error {
 public:
  TrainingAborted(const std::string& msg, RecoveryReport report)
      : std::runtime_error(msg), report_(std::move(report)) {}
  const RecoveryReport& report() const { return report_; }

 private:
  RecoveryReport report_;
};

/// What a cascading rollback actually landed on. The old contract — "the
/// newest checkpoint is loadable" — does not survive torn writes or bit
/// rot on the newest file; the target records how far past damaged
/// generations the search had to cascade so the trainer can surface a
/// kCheckpointCascade HealthEvent instead of silently restoring older
/// state.
struct RollbackTarget {
  std::string path;              ///< "" when nothing in `dir` is recoverable
  std::int64_t generation = -1;  ///< epoch number of the file (-1: latest/unknown)
  std::int64_t skipped_corrupt = 0;  ///< newer files skipped as unloadable
};

/// Finds the newest checkpoint in `dir` that actually loads (CRC-verified
/// full parse): tries ckpt-latest.bin first, then the numbered generations
/// (ckpt::list_generations) in descending epoch order, counting every newer
/// file that failed to load (torn, truncated, bit-flipped). A rollback thus
/// lands on the last *good* state, not merely the last written file; the
/// path is "" when nothing in `dir` is recoverable. When `scrubber` is
/// non-null, files the scrubber already proved corrupt are skipped without
/// paying a load attempt — the generation chain's ledger fast-paths the
/// cascade.
RollbackTarget find_rollback_target(const std::string& dir,
                                    const CheckpointScrubber* scrubber);

class RecoveryPolicy {
 public:
  struct Decision {
    enum class Action { kRollback, kAbort };
    Action action = Action::kRollback;
    /// Cumulative recovery LR multiplier for the retry (lr_cut^attempt).
    float lr_scale = 1.f;
    /// Modeled wait before the retry: min(base^(attempt-1), cap) seconds.
    double backoff_seconds = 0;
    std::int64_t attempt = 0;  ///< 1-based rollback count, this one included
    /// Filled in by the trainer once the rollback target is resolved: the
    /// checkpoint actually restored, its generation number, and how many
    /// newer (corrupt) generations the search cascaded past.
    std::string checkpoint;
    std::int64_t generation = -1;
    std::int64_t cascaded_past = 0;
  };

  explicit RecoveryPolicy(RecoveryConfig cfg);

  /// Decides the response to one fatal event. Each kRollback consumes one
  /// unit of the budget; once `max_rollbacks` are spent the answer is
  /// kAbort (idempotent thereafter).
  Decision on_fatal(const HealthEvent& event);

  std::int64_t rollbacks() const { return rollbacks_; }
  const RecoveryConfig& config() const { return cfg_; }

 private:
  RecoveryConfig cfg_;
  std::int64_t rollbacks_ = 0;
};

}  // namespace pt::robust
