// Pluggable sparsification strategies.
//
// PruneTrain's group-lasso sparsifier used to be hard-wired into
// core::PruneTrainer. This interface extracts the per-epoch / per-step
// hooks the trainer calls so alternative sparsification schemes (DST
// trainable thresholds, dynamic channel propagation — see strategy_zoo.h)
// plug into the same training loop, channel-union reconfiguration,
// checkpointing, guardian rollback, and elastic membership without forking
// the trainer.
//
// Contract (DESIGN.md §11 spells out the details):
//
//  * Hooks run on the trainer thread, serially — a strategy never touches
//    the exec pool, so N-thread runs stay bitwise-identical to 1-thread.
//  * `post_step_update` mutates ONLY strategy-internal state and runs once
//    per optimizer step (on the first participant under elastic training);
//    `post_step` mutates ONLY network weights, deterministically from
//    (weights, strategy state), and runs once per replica. Keeping the two
//    separate is what makes data-parallel replicas stay bit-identical.
//  * Everything that influences future behavior must round-trip through
//    `state()`/`load_state()` — the trainer checkpoints it in a "strategy"
//    section, so crash-resume and guardian rollback-replay reproduce an
//    uninterrupted run bitwise. Per-epoch caches re-derived by
//    `on_epoch_begin` (which always runs before the epoch's first step,
//    including after a resume) need not be serialized.
//  * All floating-point reductions over channel groups must iterate in a
//    fixed order (node id, then channel index) — ties broken by index —
//    for the same reason.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/network.h"
#include "util/registry.h"

namespace pt::prune {

/// Per-optimizer-step context handed to the step hooks. Built once per
/// epoch (all fields are epoch constants).
struct StepInfo {
  std::int64_t epoch = 0;  ///< global epoch index
  float lr = 0.f;          ///< effective learning rate this epoch
  float lambda = 0.f;      ///< calibrated penalty coefficient, 0 when off
  bool sparsify = false;   ///< the current phase trains with sparsification
};

/// Per-epoch context handed to on_epoch_begin / propose_reconfigure.
struct EpochInfo {
  std::int64_t epoch_in_phase = 0; ///< 0-based index within the phase
  std::int64_t phase_epochs = 0;   ///< total epochs of the current phase
  bool sparsify = false;           ///< phase trains with sparsification
  bool periodic_reconfig = false;  ///< phase allows periodic reconfiguration
  std::int64_t one_shot_at = -1;   ///< reconfigure once after this epoch (<0 = never)
  std::int64_t reconfig_interval = 0;  ///< TrainConfig::reconfig_interval
  std::int64_t min_channels = 1;       ///< TrainConfig::prune_min_channels
};

/// What propose_reconfigure returns: whether to run the channel-union
/// reconfiguration (at TrainConfig::threshold) after this epoch.
struct ReconfigDecision {
  bool reconfigure = false;
};

/// Strategy state is plug-in state; the alias (like StrategyFactory below)
/// keeps the spelling out-of-tree strategies compile against.
using StrategyStateItem = StateItem;

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Registry name (stamped into checkpoints; a resume with a different
  /// strategy fails loudly instead of silently mixing state).
  virtual std::string name() const = 0;

  /// Start-of-epoch hook: runs before lambda calibration and the epoch's
  /// first step, on the reference network. Re-derive per-epoch caches
  /// here — it is the one hook guaranteed to run after a checkpoint
  /// restore and before any step.
  virtual void on_epoch_begin(graph::Network& net, const EpochInfo& info) {
    (void)net;
    (void)info;
  }

  /// The strategy's regularization sum (no lambda), recorded per epoch as
  /// EpochStats::lasso_loss and fed to calibrate(). 0 for mask-based
  /// strategies with no penalty term.
  virtual double regularization_loss(graph::Network& net) const {
    (void)net;
    return 0.0;
  }

  /// Adds regularization gradients after the gradient exchange, before the
  /// optimizer step — once per replica. Must be a deterministic function
  /// of (weights, gradients, strategy state).
  virtual void accumulate_gradients(graph::Network& net, const StepInfo& info) {
    (void)net;
    (void)info;
  }

  /// Updates strategy-internal state after the optimizer step — ONCE per
  /// step, reading the (post-allreduce) gradients and weights. Must not
  /// modify the network.
  virtual void post_step_update(graph::Network& net, const StepInfo& info) {
    (void)net;
    (void)info;
  }

  /// Applies the strategy's weight transform after the optimizer step
  /// (proximal shrinkage, mask re-application…) — once per replica. Must
  /// be a deterministic function of (weights, strategy state).
  virtual void post_step(graph::Network& net, const StepInfo& info) {
    (void)net;
    (void)info;
  }

  /// Whether to run the channel-union reconfiguration (at
  /// TrainConfig::threshold) after this epoch. The default reproduces the
  /// paper's cadence: every reconfig_interval epochs when the phase allows
  /// it, plus the one-shot point.
  virtual ReconfigDecision propose_reconfigure(const EpochInfo& info) const;

  /// Called after a reconfiguration changed the reference network's
  /// topology (and after the end-of-run compaction passes). Remap or reset
  /// any per-shape state here; NOT called after a checkpoint restore
  /// (load_state covers that).
  virtual void on_reconfigured(graph::Network& net) { (void)net; }

  /// Strategies deriving a penalty coefficient from the paper's Eq. 3
  /// probe (initial classification loss vs regularization sum) return
  /// true; the trainer then runs the probe batch and calls calibrate().
  virtual bool wants_lambda_calibration() const { return false; }
  virtual float calibrate(double classification_loss,
                          double regularization_loss) const {
    (void)classification_loss;
    (void)regularization_loss;
    return 0.f;
  }

  /// Small per-epoch scalars for telemetry (emitted as strategy/<key>
  /// gauges). Keep cheap; called once per recorded epoch.
  virtual std::map<std::string, double> metrics() const { return {}; }

  /// Complete serializable state. An empty vector is valid (stateless
  /// strategies); whatever is returned must make load_state() reproduce
  /// this strategy's future behavior bitwise.
  virtual std::vector<StateItem> state() const { return {}; }
  virtual void load_state(const std::vector<StateItem>& items) {
    (void)items;
  }
};

using StrategyFactory = Registry<Strategy>::Factory;

/// Name -> factory registry driving TrainConfig::strategy validation, the
/// quickstart `--strategy help` table, and the ablation bench's sweep.
class StrategyRegistry : public Registry<Strategy> {
 public:
  StrategyRegistry() : Registry("prune strategy", "strategy") {}

  /// The process-wide registry with the built-in zoo (group_lasso, dst,
  /// channel_prop) registered by strategy_zoo.cpp; thread-safe magic-static
  /// initialization.
  static StrategyRegistry& global();

  void register_strategy(StrategyFactory factory) { add(std::move(factory)); }
};

}  // namespace pt::prune
