// CanaryGate: shadow-execution validation of a candidate generation
// before the registry swaps it into the LeaseTable (ISSUE 10 tentpole,
// part 1).
//
// The CRC scrub (robust::CheckpointScrubber) proves the *bytes* of a
// checkpoint survived the disk; it proves nothing about the *numbers*
// inside. A generation whose classifier head was silently corrupted — the
// poison-ckpt fault models exactly this — carries a perfectly valid CRC-32
// footer and produces garbage on every request. The canary gate closes
// that gap the way production serving systems do: before a publish, the
// candidate shadow-executes a deterministic probe set (a fixed-seed randn
// batch from a constant seed, so a pure function of the probe count and
// the tenant's input shape) and is rejected + quarantined when
//
//   1. any probe logit is non-finite (always on — the universal check),
//   2. its probe argmaxes disagree with the incumbent's reference
//      argmaxes on more than `max_disagreement` of the probes (opt-in:
//      successive PruneTrain generations legitimately move decisions, so
//      the default threshold 1.0 never rejects), or
//   3. its modeled batch service ticks exceed `max_latency_ratio` x the
//      incumbent's (opt-in: a latency-regression budget on the modeled
//      clock; <= 0 disables).
//
// Everything is deterministic: the probe inputs are seeded, both forward
// passes run on the shared exec context (bitwise thread-invariant, PR 4),
// and the latency comparison is pure arithmetic on modeled ticks — so a
// rejection lands on the same poll tick in every replay.
#pragma once

#include <cstdint>
#include <string>

#include "exec/context.h"
#include "serve/lease.h"

namespace pt::serve {

struct CanaryConfig {
  bool enabled = true;
  std::int64_t probes = 8;  ///< probe samples per evaluation
  /// Max fraction of probes whose argmax may differ from the incumbent's
  /// reference before rejection; 1.0 disables the check.
  double max_disagreement = 1.0;
  /// Max candidate/incumbent modeled-service-tick ratio; <= 0 disables.
  double max_latency_ratio = 0.0;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

enum class CanaryOutcome : std::uint8_t {
  kAccepted = 0,
  kNonFiniteOutput = 1,    ///< a probe logit is NaN/Inf
  kDisagreement = 2,       ///< too many reference-argmax mismatches
  kLatencyRegression = 3,  ///< modeled service ticks beyond the budget
  kSkipped = 4,            ///< gate disabled; candidate passes unexamined
};

const char* to_string(CanaryOutcome outcome);

/// What one canary evaluation saw. Carried on the SwapRecord of an
/// accepted publish and on the QuarantineRecord of a rejected one.
struct CanaryReport {
  CanaryOutcome outcome = CanaryOutcome::kSkipped;
  std::int64_t probes = 0;         ///< probe samples executed
  std::int64_t disagreements = 0;  ///< probes whose argmax differed
  double disagreement = 0;         ///< disagreements / probes
  double latency_ratio = 0;        ///< candidate/incumbent service ticks
  std::string detail;              ///< human-readable verdict

  bool accepted() const {
    return outcome == CanaryOutcome::kAccepted ||
           outcome == CanaryOutcome::kSkipped;
  }
};

class CanaryGate {
 public:
  explicit CanaryGate(CanaryConfig cfg);

  const CanaryConfig& config() const { return cfg_; }

  /// Shadow-executes the probe set against `candidate` (and, when
  /// non-null, `incumbent` for the reference argmaxes / latency baseline).
  /// `input` is the tenant's per-sample input shape. The networks are
  /// non-const only because forward() caches activations; weights are
  /// never touched.
  CanaryReport evaluate(ModelVersion& candidate, ModelVersion* incumbent,
                        const Shape& input, exec::ExecContext& ctx) const;

 private:
  CanaryConfig cfg_;
};

}  // namespace pt::serve
