#include "prune/strategy_zoo.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/conv2d.h"
#include "prune/group_lasso.h"

namespace pt::prune {

namespace {

/// L2 norm of every out-channel group of `data` ([K, C, R, S] layout, one
/// contiguous slice of C*R*S floats per group), in channel order — the
/// fixed iteration order every strategy reduction uses.
std::vector<double> out_group_norms(const nn::Conv2d& conv, const float* data) {
  const std::int64_t k = conv.out_channels();
  const std::int64_t group = conv.in_channels() * conv.kernel() * conv.kernel();
  std::vector<double> norms(static_cast<std::size_t>(k));
  for (std::int64_t kk = 0; kk < k; ++kk) {
    double ss = 0;
    const float* p = data + kk * group;
    for (std::int64_t q = 0; q < group; ++q) ss += double(p[q]) * p[q];
    norms[static_cast<std::size_t>(kk)] = std::sqrt(ss);
  }
  return norms;
}

/// Indices of the `m` smallest entries of `norms`, ties broken by index
/// (deterministic regardless of the sort's internals).
std::vector<std::int64_t> lowest_indices(const std::vector<double>& norms,
                                         std::int64_t m) {
  std::vector<std::int64_t> idx(norms.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = static_cast<std::int64_t>(i);
  }
  std::sort(idx.begin(), idx.end(), [&](std::int64_t a, std::int64_t b) {
    const double na = norms[static_cast<std::size_t>(a)];
    const double nb = norms[static_cast<std::size_t>(b)];
    if (na != nb) return na < nb;
    return a < b;
  });
  idx.resize(static_cast<std::size_t>(
      std::min<std::int64_t>(m, static_cast<std::int64_t>(idx.size()))));
  return idx;
}

void zero_out_channel(nn::Conv2d& conv, std::int64_t kk) {
  const std::int64_t group = conv.in_channels() * conv.kernel() * conv.kernel();
  float* w = conv.weight().value.data();
  std::memset(w + kk * group, 0, static_cast<std::size_t>(group) * sizeof(float));
}

}  // namespace

// ---------------------------------------------------------------------------
// group_lasso — the paper's scheme, byte-for-byte the pre-refactor trainer.

double GroupLassoStrategy::regularization_loss(graph::Network& net) const {
  GroupLassoRegularizer reg(net);
  reg.set_size_normalized(size_normalized_);
  return reg.loss();
}

void GroupLassoStrategy::accumulate_gradients(graph::Network& net,
                                              const StepInfo& info) {
  if (info.lambda > 0.f && !proximal_) {
    GroupLassoRegularizer reg(net);
    reg.set_size_normalized(size_normalized_);
    reg.add_gradients(info.lambda);
  }
}

void GroupLassoStrategy::post_step(graph::Network& net, const StepInfo& info) {
  if (info.lambda > 0.f && proximal_) {
    GroupLassoRegularizer reg(net);
    reg.set_size_normalized(size_normalized_);
    reg.apply_proximal(info.lr * info.lambda);
  }
}

float GroupLassoStrategy::calibrate(double classification_loss,
                                    double regularization_loss) const {
  return calibrate_lambda(ratio_, classification_loss, regularization_loss) *
         boost_;
}

std::map<std::string, double> GroupLassoStrategy::metrics() const {
  return {{"ratio", double(ratio_)}, {"proximal", proximal_ ? 1.0 : 0.0}};
}

// ---------------------------------------------------------------------------
// dsd — dense-sparse-dense phase scheduling at channel granularity.

void DsdStrategy::on_epoch_begin(graph::Network& net, const EpochInfo& info) {
  min_keep_ = std::max<std::int64_t>(1, info.min_channels);
  const auto begin =
      static_cast<std::int64_t>(sparse_begin_ * double(info.phase_epochs));
  const auto end =
      static_cast<std::int64_t>(sparse_end_ * double(info.phase_epochs));
  in_window_ = info.sparsify && info.epoch_in_phase >= begin &&
               info.epoch_in_phase < end;
  if (!in_window_) {
    // Dense again (or not yet sparse): drop the masks so the re-dense
    // epochs retrain the masked channels from their momentum.
    masks_.clear();
    return;
  }
  // Entering the window freezes a magnitude mask from the current weights;
  // a mid-window resume restores non-empty masks and must NOT re-derive
  // them (the masked rows are zero now — ranking them would be circular).
  if (masks_.empty()) build_masks(net);
}

void DsdStrategy::build_masks(graph::Network& net) {
  for (int id : net.nodes_of_type<nn::Conv2d>()) {
    if (!net.is_live(id)) continue;
    const auto& conv = net.layer_as<nn::Conv2d>(id);
    const std::int64_t k = conv.out_channels();
    const std::int64_t m =
        std::min(static_cast<std::int64_t>(sparsity_ * double(k)),
                 k - min_keep_);
    if (m <= 0) continue;
    const std::vector<double> norms =
        out_group_norms(conv, conv.weight().value.data());
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(k), 0);
    for (std::int64_t kk : lowest_indices(norms, m)) {
      mask[static_cast<std::size_t>(kk)] = 1;
    }
    masks_[id] = std::move(mask);
  }
}

void DsdStrategy::apply_masks(graph::Network& net) const {
  for (const auto& [id, mask] : masks_) {
    if (!net.is_live(id)) continue;
    auto& conv = net.layer_as<nn::Conv2d>(id);
    if (static_cast<std::int64_t>(mask.size()) != conv.out_channels()) continue;
    for (std::int64_t kk = 0; kk < conv.out_channels(); ++kk) {
      if (mask[static_cast<std::size_t>(kk)]) zero_out_channel(conv, kk);
    }
  }
}

void DsdStrategy::post_step(graph::Network& net, const StepInfo& info) {
  (void)info;
  if (in_window_) apply_masks(net);
}

ReconfigDecision DsdStrategy::propose_reconfigure(const EpochInfo& info) const {
  (void)info;
  return {};  // never: masked channels come back in the final dense phase
}

void DsdStrategy::on_reconfigured(graph::Network& net) {
  (void)net;
  // Only the end-of-run compaction passes reach here (propose_reconfigure
  // is always false); channel indices shifted, so the masks are void.
  masks_.clear();
}

std::map<std::string, double> DsdStrategy::metrics() const {
  double masked = 0;
  for (const auto& [id, mask] : masks_) {
    (void)id;
    for (std::uint8_t b : mask) masked += b;
  }
  return {{"sparse_window", in_window_ ? 1.0 : 0.0},
          {"masked_channels", masked}};
}

std::vector<StateItem> DsdStrategy::state() const {
  std::vector<StateItem> items;
  for (const auto& [id, mask] : masks_) {
    StateItem item;
    item.name = "mask";
    item.i64 = {id};
    item.f32.reserve(mask.size());
    for (std::uint8_t b : mask) item.f32.push_back(static_cast<float>(b));
    items.push_back(std::move(item));
  }
  return items;
}

void DsdStrategy::load_state(const std::vector<StateItem>& items) {
  masks_.clear();
  for (const StateItem& item : items) {
    if (item.name != "mask" || item.i64.size() != 1) continue;
    std::vector<std::uint8_t> mask;
    mask.reserve(item.f32.size());
    for (float f : item.f32) mask.push_back(f != 0.f ? 1 : 0);
    masks_[static_cast<int>(item.i64[0])] = std::move(mask);
  }
}

// ---------------------------------------------------------------------------
// dst — trainable per-layer thresholds.

void DstStrategy::on_epoch_begin(graph::Network& net, const EpochInfo& info) {
  active_ = info.sparsify;
  min_keep_ = std::max<std::int64_t>(1, info.min_channels);
  for (int id : net.nodes_of_type<nn::Conv2d>()) {
    if (!net.is_live(id)) continue;
    thresholds_.emplace(id, init_);
  }
}

double DstStrategy::regularization_loss(graph::Network& net) const {
  // The DST sparsity penalty: alpha * sum_l exp(-t_l). Decreasing in t, so
  // gradient descent on it pushes the thresholds up.
  double total = 0;
  for (int id : net.nodes_of_type<nn::Conv2d>()) {
    if (!net.is_live(id)) continue;
    auto it = thresholds_.find(id);
    if (it != thresholds_.end()) total += double(alpha_) * std::exp(-double(it->second));
  }
  return total;
}

void DstStrategy::post_step_update(graph::Network& net, const StepInfo& info) {
  if (!active_) return;
  for (auto& [id, t] : thresholds_) {
    if (!net.is_live(id)) continue;
    const auto& conv = net.layer_as<nn::Conv2d>(id);
    const std::vector<double> w_norms =
        out_group_norms(conv, conv.weight().value.data());
    const std::vector<double> g_norms =
        out_group_norms(conv, conv.weight().grad.data());
    // Revival pressure: gradient signal accumulating on masked groups
    // means the task wants them back — it pushes the threshold down.
    double masked_grad = 0;
    std::int64_t masked = 0;
    for (std::size_t kk = 0; kk < w_norms.size(); ++kk) {
      if (w_norms[kk] < double(t)) {
        masked_grad += g_norms[kk];
        ++masked;
      }
    }
    const double pressure = masked > 0 ? masked_grad / double(masked) : 0.0;
    const double dt = double(alpha_) * std::exp(-double(t)) -
                      double(beta_) * pressure;
    t = std::max(0.f, t + threshold_lr_ * static_cast<float>(dt));
    (void)info;
  }
}

void DstStrategy::post_step(graph::Network& net, const StepInfo& info) {
  (void)info;
  if (!active_) return;
  for (const auto& [id, t] : thresholds_) {
    if (!net.is_live(id)) continue;
    auto& conv = net.layer_as<nn::Conv2d>(id);
    const std::int64_t k = conv.out_channels();
    const std::vector<double> norms =
        out_group_norms(conv, conv.weight().value.data());
    // Survival floor: the strongest min_keep groups are never masked, so a
    // runaway threshold cannot zero a whole layer.
    std::vector<std::int64_t> order = lowest_indices(norms, k);
    const std::int64_t maskable = k - min_keep_;
    for (std::int64_t i = 0; i < maskable; ++i) {
      const std::int64_t kk = order[static_cast<std::size_t>(i)];
      if (norms[static_cast<std::size_t>(kk)] < double(t)) {
        zero_out_channel(conv, kk);
      }
    }
  }
}

void DstStrategy::on_reconfigured(graph::Network& net) {
  // Thresholds are per-layer scalars, so surgery does not invalidate them;
  // just drop entries of convs removed with their dead branches.
  for (auto it = thresholds_.begin(); it != thresholds_.end();) {
    if (!net.is_live(it->first)) {
      it = thresholds_.erase(it);
    } else {
      ++it;
    }
  }
}

std::map<std::string, double> DstStrategy::metrics() const {
  double sum = 0, max_t = 0;
  for (const auto& [id, t] : thresholds_) {
    (void)id;
    sum += t;
    max_t = std::max(max_t, double(t));
  }
  const double n = thresholds_.empty() ? 1.0 : double(thresholds_.size());
  return {{"mean_threshold", sum / n}, {"max_threshold", max_t}};
}

std::vector<StateItem> DstStrategy::state() const {
  StateItem item;
  item.name = "thresholds";
  for (const auto& [id, t] : thresholds_) {
    item.i64.push_back(id);
    item.f32.push_back(t);
  }
  return {std::move(item)};
}

void DstStrategy::load_state(const std::vector<StateItem>& items) {
  thresholds_.clear();
  for (const StateItem& item : items) {
    if (item.name != "thresholds" || item.i64.size() != item.f32.size()) {
      continue;
    }
    for (std::size_t i = 0; i < item.i64.size(); ++i) {
      thresholds_[static_cast<int>(item.i64[i])] = item.f32[i];
    }
  }
}

// ---------------------------------------------------------------------------
// channel_prop — dynamic channel propagation via saliency scores.

void ChannelPropStrategy::on_epoch_begin(graph::Network& net,
                                         const EpochInfo& info) {
  active_ = info.sparsify && info.epoch_in_phase >= warmup_epochs_;
  progress_ = info.phase_epochs > 0
                  ? double(info.epoch_in_phase + 1) / double(info.phase_epochs)
                  : 1.0;
  min_keep_ = std::max<std::int64_t>(1, info.min_channels);
  for (int id : net.nodes_of_type<nn::Conv2d>()) {
    if (!net.is_live(id)) continue;
    const auto& conv = net.layer_as<nn::Conv2d>(id);
    auto& s = saliency_[id];
    if (static_cast<std::int64_t>(s.size()) != conv.out_channels()) {
      s.assign(static_cast<std::size_t>(conv.out_channels()), 0.f);
    }
  }
}

void ChannelPropStrategy::post_step_update(graph::Network& net,
                                           const StepInfo& info) {
  (void)info;
  for (auto& [id, s] : saliency_) {
    if (!net.is_live(id)) continue;
    const auto& conv = net.layer_as<nn::Conv2d>(id);
    if (static_cast<std::int64_t>(s.size()) != conv.out_channels()) continue;
    const std::vector<double> g_norms =
        out_group_norms(conv, conv.weight().grad.data());
    for (std::size_t kk = 0; kk < s.size(); ++kk) {
      s[kk] = decay_ * s[kk] +
              (1.f - decay_) * static_cast<float>(g_norms[kk]);
    }
  }
  ++steps_since_reset_;
}

void ChannelPropStrategy::post_step(graph::Network& net, const StepInfo& info) {
  (void)info;
  if (!active_ || steps_since_reset_ < kWarmupSteps) return;
  const double target = double(prune_fraction_) * std::min(1.0, progress_);
  for (const auto& [id, s] : saliency_) {
    if (!net.is_live(id)) continue;
    auto& conv = net.layer_as<nn::Conv2d>(id);
    const std::int64_t k = conv.out_channels();
    if (static_cast<std::int64_t>(s.size()) != k) continue;
    const std::int64_t m = std::min(
        static_cast<std::int64_t>(target * double(k)), k - min_keep_);
    if (m <= 0) continue;
    std::vector<double> scores(s.begin(), s.end());
    for (std::int64_t kk : lowest_indices(scores, m)) {
      zero_out_channel(conv, kk);
    }
  }
}

void ChannelPropStrategy::on_reconfigured(graph::Network& net) {
  (void)net;
  // Channel indices shifted under the surgery: restart the saliency
  // accumulation at the new shapes (on_epoch_begin resizes) and hold off
  // masking until the scores are warm again.
  saliency_.clear();
  steps_since_reset_ = 0;
}

std::map<std::string, double> ChannelPropStrategy::metrics() const {
  return {{"active", active_ ? 1.0 : 0.0},
          {"steps_since_reset", double(steps_since_reset_)}};
}

std::vector<StateItem> ChannelPropStrategy::state() const {
  std::vector<StateItem> items;
  StateItem steps;
  steps.name = "steps";
  steps.i64 = {steps_since_reset_};
  items.push_back(std::move(steps));
  for (const auto& [id, s] : saliency_) {
    StateItem item;
    item.name = "saliency";
    item.i64 = {id};
    item.f32 = s;
    items.push_back(std::move(item));
  }
  return items;
}

void ChannelPropStrategy::load_state(const std::vector<StateItem>& items) {
  saliency_.clear();
  steps_since_reset_ = 0;
  for (const StateItem& item : items) {
    if (item.name == "steps" && item.i64.size() == 1) {
      steps_since_reset_ = item.i64[0];
    } else if (item.name == "saliency" && item.i64.size() == 1) {
      saliency_[static_cast<int>(item.i64[0])] = item.f32;
    }
  }
}

// ---------------------------------------------------------------------------

namespace {

// Range check of one parameter: the error names the key and completes
// "must ..." with `range`.
void require(bool ok, const std::string& key, const char* range) {
  if (!ok) {
    throw std::invalid_argument("strategy parameter '" + key + "' must " +
                                range);
  }
}

void register_builtin_strategies(StrategyRegistry& registry) {
  registry.register_strategy(
      {"group_lasso",
       "PruneTrain group-lasso regularization (Eq. 1-3), the paper's scheme",
       {{"ratio", "0.2", "Eq. 3 target penalty ratio, in (0, 1)"},
        {"boost", "1", "proxy-scale lambda multiplier (see DESIGN.md)"},
        {"proximal", "true",
         "group soft-threshold after the step (exact zeros) instead of the "
         "subgradient"},
        {"size_normalized", "false",
         "scale each group's penalty by sqrt(group size) (Sec. 4.1 ablation)"}},
       [](const ParamMap& p) {
         const float ratio = param_float(p, "ratio");
         require(ratio > 0.f && ratio < 1.f, "ratio", "lie in (0, 1)");
         // A boost <= 0 turns the penalty into a reward for large groups.
         const float boost = param_float(p, "boost");
         require(boost > 0.f, "boost", "be > 0");
         return std::make_unique<GroupLassoStrategy>(
             ratio, boost, param_bool(p, "proximal"),
             param_bool(p, "size_normalized"));
       }});

  registry.register_strategy(
      {"dsd",
       "dense-sparse-dense scheduling: mid-run magnitude mask, final dense "
       "retrain (arXiv:1607.04381)",
       {{"sparsity", "0.3",
         "fraction of each conv's out-channels masked in the sparse window"},
        {"sparse_begin", "0.25", "window start as a fraction of the phase"},
        {"sparse_end", "0.75", "window end as a fraction of the phase"}},
       [](const ParamMap& p) {
         const float s = param_float(p, "sparsity");
         const float b = param_float(p, "sparse_begin");
         const float e = param_float(p, "sparse_end");
         require(s >= 0.f && s < 1.f, "sparsity", "lie in [0, 1)");
         if (!(b >= 0.f) || !(e <= 1.f) || !(b < e)) {
           throw std::invalid_argument(
               "strategy parameters must satisfy 0 <= sparse_begin < "
               "sparse_end <= 1");
         }
         return std::make_unique<DsdStrategy>(s, b, e);
       }});

  registry.register_strategy(
      {"dst",
       "dynamic sparse training: trainable per-layer threshold with exp(-t) "
       "sparsity pressure (arXiv:2005.06870)",
       {{"alpha", "1", "sparsity-pressure scale"},
        {"threshold_lr", "0.01", "learning rate of the threshold variable"},
        {"beta", "5", "revival pressure per unit masked-gradient norm"},
        {"init", "0", "initial threshold (>= 0)"}},
       [](const ParamMap& p) {
         for (const char* key : {"alpha", "threshold_lr", "beta", "init"}) {
           require(param_float(p, key) >= 0.f, key, "be >= 0");
         }
         return std::make_unique<DstStrategy>(
             param_float(p, "alpha"), param_float(p, "threshold_lr"),
             param_float(p, "beta"), param_float(p, "init"));
       }});

  registry.register_strategy(
      {"channel_prop",
       "dynamic channel propagation: gradient-saliency EWMA picks winning "
       "channels during training (arXiv:2007.01486)",
       {{"decay", "0.9", "saliency EWMA decay, in [0, 1)"},
        {"prune_fraction", "0.5",
         "final fraction of out-channels held at zero"},
        {"warmup", "1", "epochs before masking engages"}},
       [](const ParamMap& p) {
         const float decay = param_float(p, "decay");
         const float frac = param_float(p, "prune_fraction");
         require(decay >= 0.f && decay < 1.f, "decay", "lie in [0, 1)");
         require(frac >= 0.f && frac < 1.f, "prune_fraction", "lie in [0, 1)");
         const std::int64_t warmup = param_int(p, "warmup");
         require(warmup >= 0, "warmup", "be >= 0");
         return std::make_unique<ChannelPropStrategy>(decay, frac, warmup);
       }});
}

}  // namespace

StrategyRegistry& StrategyRegistry::global() {
  static StrategyRegistry registry = [] {
    StrategyRegistry r;
    register_builtin_strategies(r);
    return r;
  }();
  return registry;
}

}  // namespace pt::prune
