// Per-epoch training statistics (the data behind the paper's per-epoch
// FLOPs, BN traffic, memory and communication figures) and their one field
// list. Telemetry owns them so that an EpochRecord can be an EpochStats
// without pt_telemetry depending on pt_core; core::EpochStats is an alias.
// The checkpoint trainer section, the epochs.jsonl keys and the tests'
// comparisons all run over for_each_field: a new field is the member, its
// line there, and the order pin in tests/telemetry_test.cpp.
#pragma once

#include <concepts>
#include <cstdint>
#include <type_traits>

namespace pt::telemetry {

struct EpochStats {
  std::int64_t epoch = 0;
  std::int64_t batch_size = 0;
  double lr = 0;
  double train_loss = 0;
  double train_acc = 0;
  double test_acc = 0;
  double lasso_loss = 0;             ///< current regularizer sum (no lambda)
  double flops_per_sample_train = 0; ///< current model, fwd+bwd
  double flops_per_sample_inf = 0;   ///< current model, fwd only
  double epoch_train_flops = 0;      ///< flops_per_sample_train * samples
  double epoch_bn_traffic = 0;       ///< bytes
  double memory_bytes = 0;           ///< training context at current batch
  double comm_bytes_per_gpu = 0;     ///< allreduce volume this epoch
  double comm_time_modeled = 0;      ///< hierarchical allreduce time this epoch
  double gpu_time_modeled = 0;       ///< roofline training time this epoch
  double wall_seconds = 0;           ///< actual CPU wall time this epoch
  std::int64_t channels_alive = 0;   ///< sum of conv out-channels
  std::int64_t conv_layers = 0;
  bool reconfigured = false;
};

/// Calls f(name, field) for every EpochStats field of `s` (an EpochStats or
/// a type derived from it, const or not), in this order. The order is the
/// checkpoint trainer-section layout and the epochs.jsonl key order, so it
/// only ever grows at the end.
template <class S, class F>
  requires std::derived_from<std::remove_const_t<S>, EpochStats>
void for_each_field(S& s, F&& f) {
  f("epoch", s.epoch);
  f("batch_size", s.batch_size);
  f("lr", s.lr);
  f("train_loss", s.train_loss);
  f("train_acc", s.train_acc);
  f("test_acc", s.test_acc);
  f("lasso_loss", s.lasso_loss);
  f("flops_per_sample_train", s.flops_per_sample_train);
  f("flops_per_sample_inf", s.flops_per_sample_inf);
  f("epoch_train_flops", s.epoch_train_flops);
  f("epoch_bn_traffic", s.epoch_bn_traffic);
  f("memory_bytes", s.memory_bytes);
  f("comm_bytes_per_gpu", s.comm_bytes_per_gpu);
  f("comm_time_modeled", s.comm_time_modeled);
  f("gpu_time_modeled", s.gpu_time_modeled);
  f("wall_seconds", s.wall_seconds);
  f("channels_alive", s.channels_alive);
  f("conv_layers", s.conv_layers);
  f("reconfigured", s.reconfigured);
}

}  // namespace pt::telemetry
