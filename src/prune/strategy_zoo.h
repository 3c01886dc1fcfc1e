// The built-in sparsifier zoo behind prune::StrategyRegistry.
//
//  * group_lasso   — the paper's own scheme (Eq. 1-3), extracted from the
//                    trainer with zero behavior change: lasso subgradient
//                    or proximal group-soft-threshold, Eq. 3 lambda
//                    calibration, periodic channel-union reconfiguration.
//  * dsd           — dense-sparse-dense scheduling (Han et al.,
//                    arXiv:1607.04381) at channel granularity: a magnitude
//                    mask is frozen at the start of a mid-run sparse
//                    window and re-applied after every step, then dropped
//                    so the final epochs retrain dense. Never reconfigures
//                    (sparsity is temporary by design).
//  * dst           — dynamic sparse training with a trainable per-layer
//                    threshold (Liu et al., arXiv:2005.06870): each conv
//                    owns a scalar threshold t; channel groups whose L2
//                    norm falls below t are held at zero, t grows under an
//                    exp(-t) sparsity pressure and shrinks when the masked
//                    groups accumulate gradient signal (revival).
//  * channel_prop  — dynamic channel propagation (Zhang et al.,
//                    arXiv:2007.01486): a per-channel saliency EWMA of
//                    gradient norms picks the winning channels during
//                    training; the losers are held at zero and physically
//                    pruned at the periodic reconfigurations.
//
// All four compose with the trainer's checkpoint/rollback machinery via
// Strategy::state() and keep every reduction in fixed (node, channel)
// order so 1-vs-N-thread and resume runs stay bitwise-identical.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "prune/strategy.h"

namespace pt::prune {

class GroupLassoStrategy final : public Strategy {
 public:
  GroupLassoStrategy(float ratio, float boost, bool proximal,
                     bool size_normalized)
      : ratio_(ratio),
        boost_(boost),
        proximal_(proximal),
        size_normalized_(size_normalized) {}

  std::string name() const override { return "group_lasso"; }
  double regularization_loss(graph::Network& net) const override;
  void accumulate_gradients(graph::Network& net, const StepInfo& info) override;
  void post_step(graph::Network& net, const StepInfo& info) override;
  bool wants_lambda_calibration() const override { return true; }
  float calibrate(double classification_loss,
                  double regularization_loss) const override;
  std::map<std::string, double> metrics() const override;

  bool proximal() const { return proximal_; }

 private:
  float ratio_;
  float boost_;
  bool proximal_;
  bool size_normalized_;
};

class DsdStrategy final : public Strategy {
 public:
  DsdStrategy(float sparsity, float sparse_begin, float sparse_end)
      : sparsity_(sparsity),
        sparse_begin_(sparse_begin),
        sparse_end_(sparse_end) {}

  std::string name() const override { return "dsd"; }
  void on_epoch_begin(graph::Network& net, const EpochInfo& info) override;
  void post_step(graph::Network& net, const StepInfo& info) override;
  /// DSD never reconfigures mid-run: the sparse phase is a temporary
  /// regularizer, and the masked channels must survive to retrain dense.
  ReconfigDecision propose_reconfigure(const EpochInfo& info) const override;
  void on_reconfigured(graph::Network& net) override;
  std::map<std::string, double> metrics() const override;
  std::vector<StateItem> state() const override;
  void load_state(const std::vector<StateItem>& items) override;

  bool in_sparse_window() const { return in_window_; }

 private:
  void build_masks(graph::Network& net);
  void apply_masks(graph::Network& net) const;

  float sparsity_;      ///< fraction of each conv's out-channels to mask
  float sparse_begin_;  ///< window start, as a fraction of the phase
  float sparse_end_;    ///< window end, as a fraction of the phase

  // node id -> 1 byte per out-channel (1 = masked). Frozen at window
  // entry, cleared at window exit; checkpointed so a mid-window resume
  // does not re-derive masks from already-masked weights.
  std::map<int, std::vector<std::uint8_t>> masks_;

  // Per-epoch caches, re-derived by on_epoch_begin (not serialized).
  bool in_window_ = false;
  std::int64_t min_keep_ = 1;
};

class DstStrategy final : public Strategy {
 public:
  DstStrategy(float alpha, float threshold_lr, float beta, float init)
      : alpha_(alpha), threshold_lr_(threshold_lr), beta_(beta), init_(init) {}

  std::string name() const override { return "dst"; }
  void on_epoch_begin(graph::Network& net, const EpochInfo& info) override;
  double regularization_loss(graph::Network& net) const override;
  void post_step_update(graph::Network& net, const StepInfo& info) override;
  void post_step(graph::Network& net, const StepInfo& info) override;
  void on_reconfigured(graph::Network& net) override;
  std::map<std::string, double> metrics() const override;
  std::vector<StateItem> state() const override;
  void load_state(const std::vector<StateItem>& items) override;

 private:
  float alpha_;         ///< sparsity-pressure scale (d/dt of alpha*exp(-t))
  float threshold_lr_;  ///< learning rate of the threshold variable
  float beta_;          ///< revival pressure per unit masked-gradient norm
  float init_;          ///< initial threshold

  std::map<int, float> thresholds_;  ///< node id -> trainable t (state)

  // Per-epoch caches (re-derived by on_epoch_begin).
  bool active_ = false;
  std::int64_t min_keep_ = 1;
};

class ChannelPropStrategy final : public Strategy {
 public:
  ChannelPropStrategy(float decay, float prune_fraction,
                      std::int64_t warmup_epochs)
      : decay_(decay),
        prune_fraction_(prune_fraction),
        warmup_epochs_(warmup_epochs) {}

  std::string name() const override { return "channel_prop"; }
  void on_epoch_begin(graph::Network& net, const EpochInfo& info) override;
  void post_step_update(graph::Network& net, const StepInfo& info) override;
  void post_step(graph::Network& net, const StepInfo& info) override;
  void on_reconfigured(graph::Network& net) override;
  std::map<std::string, double> metrics() const override;
  std::vector<StateItem> state() const override;
  void load_state(const std::vector<StateItem>& items) override;

 private:
  /// Saliency updates need this many steps after a (re)start before the
  /// scores are trusted to pick losers — masking on an all-zero EWMA would
  /// pick channels by index alone.
  static constexpr std::int64_t kWarmupSteps = 10;

  float decay_;           ///< saliency EWMA decay
  float prune_fraction_;  ///< final fraction of channels held at zero
  std::int64_t warmup_epochs_;

  std::map<int, std::vector<float>> saliency_;  ///< node id -> per-channel EWMA
  std::int64_t steps_since_reset_ = 0;

  // Per-epoch caches (re-derived by on_epoch_begin).
  bool active_ = false;
  double progress_ = 0.0;  ///< phase progress in (0, 1]
  std::int64_t min_keep_ = 1;
};

}  // namespace pt::prune
