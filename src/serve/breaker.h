// Post-swap runtime guards (ISSUE 10 tentpole, part 2): the per-model
// GenerationHealth monitor that indicts a freshly swapped generation, and
// the per-model CircuitBreaker that stops queueing traffic onto a
// known-bad model.
//
// The canary gate (canary.h) screens a candidate *before* publish; these
// guards watch it *after*. GenerationHealth keeps sliding-window counters
// on the modeled clock — batches with non-finite logits and modeled
// deadline misses — and reports a breach when a configured threshold is
// exceeded. The runtime answers a breach with automatic rollback to the
// previous pinned generation (see server.h: the rollback target is held
// resident through a probation window of kProbationTicks, so rollback is a
// LeaseTable epoch bump — zero-drop by construction, nothing in flight is
// cancelled).
//
// Determinism: every input to these guards is worker-count-invariant.
// NaN-output verdicts are payload facts (bitwise identical at any worker /
// thread count), and the deadline-miss counter deliberately uses the
// *modeled serial* completion estimate (formation tick + modeled service
// ticks) rather than the actual worker-assigned completion — the same
// choice the mailbox admission estimate makes — so breaches, rollbacks,
// and breaker transitions land on the same tick under 1 worker or N.
//
// The breaker is the classic closed -> open -> half-open machine:
//   closed:    everything admitted; `failure_threshold` consecutive
//              unhealthy batches open it.
//   open:      arrivals shed with ShedReason::kCircuitOpen (structural:
//              already-admitted requests still serve — zero-drop holds).
//              After `open_ticks` of modeled cooldown the next arrival
//              moves it to half-open.
//   half-open: the first `half_open_probes` arrivals are admitted as
//              probes, the rest shed. `close_after` healthy probe batches
//              close it; one unhealthy batch reopens it.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serve/request.h"

namespace pt::serve {

/// Rollback window after a swap: how long the superseded version stays
/// pinned as the rollback target (it retires afterwards).
inline constexpr Tick kProbationTicks = 512;

struct GenerationHealthConfig {
  /// Sliding-window length in modeled ticks for all counters.
  Tick window = 64;
  /// Breach when windowed batches with non-finite logits exceed this;
  /// -1 disables. Default 0: a single NaN batch indicts the generation.
  std::int64_t max_nan_batches = 0;
  /// Breach when windowed modeled deadline misses (serial estimate, see
  /// header comment) exceed this; -1 disables (legitimate overload also
  /// misses deadlines — opt in when a generation is the suspect).
  std::int64_t max_deadline_misses = -1;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Windowed health counters for the generation a tenant currently serves.
/// reset() on every swap/rollback: a new generation starts clean.
class GenerationHealth {
 public:
  explicit GenerationHealth(GenerationHealthConfig cfg);

  void reset();
  void record_batch(Tick now, bool nan_output, std::int64_t modeled_misses);

  /// Breach verdict at `now` (window pruned first): nullptr when healthy,
  /// else the counter that tripped ("nan-output" | "deadline-miss").
  const char* breach(Tick now);

  std::int64_t nan_batches() const { return nan_total_; }
  std::int64_t modeled_misses() const { return miss_total_; }

 private:
  void prune(Tick now);

  GenerationHealthConfig cfg_;
  std::deque<Tick> nan_ticks_;                        ///< NaN-output batches
  std::deque<std::pair<Tick, std::int64_t>> misses_;  ///< per-batch misses
  std::int64_t nan_total_ = 0;   ///< lifetime, across resets
  std::int64_t miss_total_ = 0;  ///< lifetime, across resets
};

enum class BreakerState : std::uint8_t {
  kClosed = 0,
  kOpen = 1,
  kHalfOpen = 2,
};

const char* to_string(BreakerState state);

struct BreakerConfig {
  /// Consecutive unhealthy batches that open a closed breaker.
  std::int64_t failure_threshold = 2;
  /// Modeled cooldown ticks before an open breaker admits probes.
  Tick open_ticks = 64;
  /// Arrivals admitted per half-open round; the rest shed kCircuitOpen.
  std::int64_t half_open_probes = 2;
  /// Healthy probe batches required to close from half-open.
  std::int64_t close_after = 1;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// One recorded state change, on the modeled clock.
struct BreakerTransition {
  Tick tick = 0;
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kClosed;
  std::string why;
};

class CircuitBreaker {
 public:
  /// What admission control should do with an arrival.
  enum class Admission : std::uint8_t {
    kAdmit = 0,  ///< breaker closed — normal admission
    kProbe = 1,  ///< half-open probe — admit, its batch decides the state
    kShed = 2,   ///< open (or probe budget spent) — shed kCircuitOpen
  };

  explicit CircuitBreaker(BreakerConfig cfg);

  BreakerState state() const { return state_; }

  /// Admission verdict for an arrival at `now`. May transition
  /// open -> half-open when the cooldown has elapsed.
  Admission admit(Tick now);

  /// Outcome of a served batch (healthy = all logits finite). Drives
  /// closed -> open and half-open -> closed/open transitions.
  void on_batch(Tick now, bool healthy);

  /// Back to closed with counters cleared — called on swap/rollback, when
  /// the model behind the breaker is no longer the one that tripped it.
  void reset(Tick now, const std::string& why);

  const std::vector<BreakerTransition>& transitions() const {
    return transitions_;
  }

 private:
  void transition(Tick now, BreakerState to, const std::string& why);

  BreakerConfig cfg_;
  BreakerState state_ = BreakerState::kClosed;
  std::int64_t consecutive_failures_ = 0;
  Tick opened_at_ = 0;
  std::int64_t probes_admitted_ = 0;
  std::int64_t probe_successes_ = 0;
  std::vector<BreakerTransition> transitions_;
};

}  // namespace pt::serve
