#include "robust/recovery.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "robust/integrity.h"
#include "telemetry/metrics.h"

namespace pt::robust {

void RecoveryConfig::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("RecoveryConfig: " + what);
  };
  if (max_rollbacks < 0) {
    fail("max_rollbacks must be >= 0 (got " + std::to_string(max_rollbacks) +
         ")");
  }
  if (!(lr_cut > 0.f) || lr_cut > 1.f) {
    fail("lr_cut must lie in (0, 1] (got " + std::to_string(lr_cut) + ")");
  }
  if (!(backoff_base >= 1.0)) {
    fail("backoff_base must be >= 1 (got " + std::to_string(backoff_base) +
         ")");
  }
  if (!(backoff_cap >= 0.0)) {
    fail("backoff_cap must be >= 0 (got " + std::to_string(backoff_cap) + ")");
  }
}

std::vector<std::uint8_t> serialize_report(const RecoveryReport& report) {
  ckpt::ByteWriter w;
  w.put<std::int64_t>(report.rollbacks);
  w.put<std::int64_t>(report.faults_injected);
  w.put<double>(report.backoff_seconds);
  w.put<std::uint8_t>(report.aborted ? 1 : 0);
  w.put_string(report.last_checkpoint);
  w.put<std::uint64_t>(report.events.size());
  for (const HealthEvent& e : report.events) {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(e.type));
    w.put<std::uint8_t>(static_cast<std::uint8_t>(e.severity));
    w.put<std::int64_t>(e.epoch);
    w.put<double>(e.value);
    w.put_string(e.detail);
  }
  return w.take();
}

RecoveryReport deserialize_report(const std::vector<std::uint8_t>& bytes) {
  ckpt::ByteReader r(bytes);
  RecoveryReport report;
  report.rollbacks = r.get<std::int64_t>();
  report.faults_injected = r.get<std::int64_t>();
  report.backoff_seconds = r.get<double>();
  report.aborted = r.get<std::uint8_t>() != 0;
  report.last_checkpoint = r.get_string();
  const auto n = r.get<std::uint64_t>();
  report.events.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    HealthEvent e;
    e.type = static_cast<EventType>(r.get<std::uint8_t>());
    e.severity = static_cast<Severity>(r.get<std::uint8_t>());
    e.epoch = r.get<std::int64_t>();
    e.value = r.get<double>();
    e.detail = r.get_string();
    report.events.push_back(std::move(e));
  }
  return report;
}

RollbackTarget find_rollback_target(const std::string& dir,
                                    const CheckpointScrubber* scrubber) {
  namespace fs = std::filesystem;
  auto loads = [](const std::string& path) {
    try {
      ckpt::Checkpoint::load(path);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  };
  // The scrubber's ledger fast-paths the verdict: a generation it already
  // proved corrupt is skipped without paying a load attempt.
  auto known_corrupt = [&](const std::string& path) {
    if (scrubber == nullptr) return false;
    const GenerationInfo* g = scrubber->verdict(path);
    return g != nullptr && !g->valid;
  };

  RollbackTarget target;
  const fs::path latest = fs::path(dir) / "ckpt-latest.bin";
  if (fs::exists(latest)) {
    if (!known_corrupt(latest.string()) && loads(latest.string())) {
      target.path = latest.string();
      return target;
    }
    ++target.skipped_corrupt;
  }

  // Numbered checkpoints, newest first.
  const std::vector<ckpt::GenerationEntry> gens = ckpt::list_generations(dir);
  for (auto g = gens.rbegin(); g != gens.rend(); ++g) {
    if (!known_corrupt(g->path) && loads(g->path)) {
      target.path = g->path;
      target.generation = g->epoch;
      return target;
    }
    ++target.skipped_corrupt;
  }
  target.skipped_corrupt = 0;  // nothing recoverable: the count is moot
  return target;
}

RecoveryPolicy::RecoveryPolicy(RecoveryConfig cfg) : cfg_(cfg) {
  cfg_.validate();
}

RecoveryPolicy::Decision RecoveryPolicy::on_fatal(const HealthEvent& event) {
  (void)event;  // the decision depends only on the budget, not the cause
  Decision d;
  if (rollbacks_ >= cfg_.max_rollbacks) {
    d.action = Decision::Action::kAbort;
    d.attempt = rollbacks_;
    telemetry::event("recovery/abort",
                     "rollback budget exhausted after " +
                         std::to_string(rollbacks_) + " attempts");
    return d;
  }
  ++rollbacks_;
  d.action = Decision::Action::kRollback;
  d.attempt = rollbacks_;
  d.lr_scale = static_cast<float>(
      std::pow(static_cast<double>(cfg_.lr_cut), static_cast<double>(rollbacks_)));
  d.backoff_seconds = std::min(
      std::pow(cfg_.backoff_base, static_cast<double>(rollbacks_ - 1)),
      cfg_.backoff_cap);
  if (telemetry::enabled()) {
    telemetry::count("recovery/rollbacks");
    telemetry::event("recovery/rollback",
                     "attempt " + std::to_string(d.attempt) + ", lr_scale " +
                         std::to_string(d.lr_scale) + ", backoff " +
                         std::to_string(d.backoff_seconds) + "s");
  }
  return d;
}

}  // namespace pt::robust
