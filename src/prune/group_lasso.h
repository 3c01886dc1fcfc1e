// Group-lasso regularization over per-channel weight groups — the paper's
// Eq. 1/2 — and the systematic penalty-coefficient setup of Eq. 3.
//
// Groups (Sec. 4.1): for every convolution layer, one group per *input*
// channel (W[:, c, :, :]) and one per *output* channel (W[k, :, :, :]).
// The input channels of the first conv and the output neurons of the
// classifier are never regularized (network inputs/outputs stay dense).
// A single global coefficient lambda is used, which — as the paper argues —
// prioritizes pruning the computation-heavy early layers.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/network.h"

namespace pt::prune {

class GroupLassoRegularizer {
 public:
  /// Binds to the network's live conv layers. Re-binds automatically after
  /// reconfiguration (node ids are stable; channel extents are re-read on
  /// every call).
  explicit GroupLassoRegularizer(graph::Network& net);

  /// Sum over all groups of ||W_g||_2 (the bracketed term of Eq. 2,
  /// without lambda).
  double loss() const;

  /// Accumulates lambda * d/dW sum_g ||W_g||_2 into each conv's weight
  /// gradient: w * (1/||g_in|| + 1/||g_out||) per element (subgradient 0
  /// for zero-norm groups).
  void add_gradients(float lambda) const;

  /// Proximal group soft-threshold, applied *after* the SGD step:
  ///   W_g <- W_g * max(0, 1 - kappa / ||W_g||_2),   kappa = lr * lambda.
  /// Mathematically this is the proximal operator of kappa*||.||_2 (applied
  /// per group type, the standard approximation for overlapping groups).
  /// Unlike the plain subgradient, it reaches *exact* zeros instead of
  /// oscillating at amplitude ~lr*lambda — required when the proxy-scale
  /// "boost" strategy parameter makes lr*lambda larger than the pruning
  /// threshold. With the paper's own tiny lambda the two updates are
  /// indistinguishable.
  void apply_proximal(float kappa) const;

  /// Conv node ids under regularization.
  const std::vector<int>& conv_nodes() const { return conv_nodes_; }

  /// Switches to the per-group-size-normalized penalty of prior work
  /// (Sec. 4.1): each group's penalty is scaled by sqrt(group size),
  /// renormalized so the mean multiplier is 1 (keeping Eq. 3 calibration
  /// comparable across modes). The paper's default is the single global
  /// coefficient (false), which prioritizes pruning the computation-heavy
  /// early layers; size normalization prioritizes model-size reduction.
  void set_size_normalized(bool enabled) { size_normalized_ = enabled; }
  bool size_normalized() const { return size_normalized_; }

 private:
  /// Mean over live groups of sqrt(group size) — the normalizer for
  /// size-scaled penalties. Recomputed per call (extents change across
  /// reconfigurations).
  double mean_sqrt_group_size() const;

  graph::Network* net_;
  std::vector<int> conv_nodes_;
  bool size_normalized_ = false;
};

/// Eq. 3 solved for lambda: given a target penalty *ratio*
/// r = lambda*S / (L + lambda*S), with L the initial classification loss and
/// S the initial lasso sum, returns lambda = r*L / ((1-r)*S).
///
/// The paper computes L and S once, at the very first forward pass with
/// randomly initialized weights, and keeps lambda fixed; ratios of
/// 0.20-0.25 give >50% pruning with <2% accuracy loss across models.
float calibrate_lambda(float target_ratio, double classification_loss,
                       double lasso_loss);

/// The achieved ratio for a given lambda (for monitoring / tests).
double lasso_penalty_ratio(float lambda, double classification_loss,
                           double lasso_loss);

}  // namespace pt::prune
