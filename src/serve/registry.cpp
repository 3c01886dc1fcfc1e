#include "serve/registry.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ckpt/checkpoint.h"
#include "cost/flops.h"
#include "prune/materialize.h"
#include "telemetry/metrics.h"
#include "util/logging.h"

namespace pt::serve {

void RegistryConfig::validate() const {
  if (flops_per_tick <= 0) {
    throw std::invalid_argument("RegistryConfig: flops_per_tick must be > 0");
  }
  if (max_batch <= 0) {
    throw std::invalid_argument("RegistryConfig: max_batch must be >= 1");
  }
  canary.validate();
}

ModelRegistry::ModelRegistry(RegistryConfig cfg)
    : cfg_(cfg), gate_(cfg.canary) {
  cfg_.validate();
}

void ModelRegistry::add_model(const std::string& name,
                              const std::string& checkpoint_dir, Shape input) {
  if (tenants_.count(name) > 0) {
    throw std::invalid_argument("ModelRegistry: tenant '" + name +
                                "' already registered");
  }
  Tenant t;
  t.dir = checkpoint_dir;
  t.input = std::move(input);
  t.scrubber = std::make_unique<robust::CheckpointScrubber>(0);
  tenants_.emplace(name, std::move(t));
  order_.push_back(name);
}

std::shared_ptr<ModelVersion> ModelRegistry::make_version(
    graph::Network net, std::int64_t generation, const Shape& input) const {
  auto version = std::make_shared<ModelVersion>();
  version->generation = generation;
  version->net = std::move(net);
  version->materialized = prune::materialize_inference(
      version->net, prune::InferenceForm::kChannelUnion);
  cost::FlopsModel flops(version->net, input);
  version->inference_flops = flops.inference_flops();
  version->service_ticks_per_batch = std::max<Tick>(
      1, static_cast<Tick>(std::llround(
             version->inference_flops *
             static_cast<double>(cfg_.max_batch) / cfg_.flops_per_tick)));
  return version;
}

SwapRecord ModelRegistry::publish_version(const std::string& name,
                                          std::shared_ptr<ModelVersion> version,
                                          const std::string& path,
                                          LeaseTable& leases) {
  const std::int64_t generation = version->generation;
  SwapRecord rec;
  rec.model = name;
  rec.from_generation = served_generation(name);
  rec.to_generation = generation;
  rec.path = path;
  rec.inference_flops = version->inference_flops;
  rec.service_ticks_per_batch = version->service_ticks_per_batch;
  rec.lease_epoch = leases.publish(name, std::move(version));

  auto it = tenants_.find(name);
  if (it != tenants_.end()) it->second.served_generation = generation;
  telemetry::count("serve/swaps");
  telemetry::gauge("serve/" + name + "/generation",
                   static_cast<double>(generation));
  return rec;
}

void ModelRegistry::quarantine(const std::string& name, QuarantineRecord rec) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) {
    it->second.quarantined_epochs.push_back(rec.generation);
  }
  telemetry::count("serve/quarantined_generations");
  telemetry::event("serve/quarantine",
                   name + " generation " + std::to_string(rec.generation) +
                       " (" + rec.reason + ")");
  quarantine_.push_back(std::move(rec));
}

SwapRecord ModelRegistry::publish_network(const std::string& name,
                                          graph::Network net,
                                          std::int64_t generation, Shape input,
                                          LeaseTable& leases) {
  if (tenants_.count(name) == 0) {
    Tenant t;
    t.input = input;
    tenants_.emplace(name, std::move(t));
    order_.push_back(name);
  }
  return publish_version(name, make_version(std::move(net), generation, input),
                         "", leases);
}

std::vector<SwapRecord> ModelRegistry::poll(exec::ExecContext& ctx,
                                            LeaseTable& leases) {
  std::vector<SwapRecord> swaps;
  for (const std::string& name : order_) {
    Tenant& t = tenants_.at(name);
    if (t.dir.empty() || !t.scrubber) continue;
    // 1. Discover new generations (read-only listing).
    const auto generations = ckpt::list_generations(t.dir);
    bool noted_new = false;
    for (const auto& g : generations) {
      if (std::find(t.noted.begin(), t.noted.end(), g.path) != t.noted.end()) {
        continue;
      }
      t.scrubber->note_saved(g.path, g.epoch);
      t.noted.push_back(g.path);
      noted_new = true;
    }
    if (!noted_new) continue;
    // 2. CRC-validate the chain before committing to any load. A torn or
    // bit-rotted generation is quarantined loudly (telemetry counter +
    // event) the first time the scrub flags it — not silently skipped.
    t.scrubber->scrub(ctx);
    for (const auto& g : t.scrubber->generations()) {
      if (!g.scrubbed || g.valid) continue;
      if (std::find(t.flagged_invalid.begin(), t.flagged_invalid.end(),
                    g.path) != t.flagged_invalid.end()) {
        continue;
      }
      t.flagged_invalid.push_back(g.path);
      QuarantineRecord q;
      q.model = name;
      q.generation = g.epoch;
      q.path = g.path;
      q.reason = "scrub-invalid";
      quarantine(name, std::move(q));
    }
    // 3. Newest scrubbed-valid, non-quarantined generation strictly newer
    // than served.
    const robust::GenerationInfo* best = nullptr;
    for (const auto& g : t.scrubber->generations()) {
      if (!g.valid || g.epoch <= t.served_generation) continue;
      if (std::find(t.quarantined_epochs.begin(), t.quarantined_epochs.end(),
                    g.epoch) != t.quarantined_epochs.end()) {
        continue;
      }
      if (!best || g.epoch > best->epoch) best = &g;
    }
    if (!best) continue;
    // 4-7. Load, materialize, price, canary-validate, publish.
    try {
      ckpt::Checkpoint ck = ckpt::Checkpoint::load(best->path);
      auto version = make_version(ck.restore_network(), best->epoch, t.input);
      auto incumbent = leases.acquire(name);
      CanaryReport canary =
          gate_.evaluate(*version, incumbent.get(), t.input, ctx);
      if (!canary.accepted()) {
        robust::HealthEvent ev;
        ev.type = robust::EventType::kCanaryRejected;
        ev.severity = robust::Severity::kWarning;
        ev.epoch = best->epoch;
        ev.value = canary.disagreement;
        ev.detail = name + ": " + to_string(canary.outcome) + " — " +
                    canary.detail;
        telemetry::event("health/" + to_string(ev.type), ev.describe());
        health_log_.push_back(std::move(ev));
        QuarantineRecord q;
        q.model = name;
        q.generation = best->epoch;
        q.path = best->path;
        q.reason = std::string("canary:") + to_string(canary.outcome);
        q.canary = std::move(canary);
        quarantine(name, std::move(q));
        continue;
      }
      SwapRecord rec =
          publish_version(name, std::move(version), best->path, leases);
      rec.canary = std::move(canary);
      swaps.push_back(std::move(rec));
    } catch (const std::exception& e) {
      // A file that passed the scrub but fails the full parse (e.g.
      // corrupted between scrub and load) is skipped, never half-served.
      log_warn(std::string("serve: failed to load generation ") +
               std::to_string(best->epoch) + " for '" + name +
               "': " + e.what());
      telemetry::event("serve/load-failed", name + " " + best->path);
    }
  }
  return swaps;
}

void ModelRegistry::note_rollback(const std::string& name,
                                  std::int64_t bad_generation,
                                  std::int64_t restored_generation,
                                  const std::string& why) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) {
    it->second.served_generation = restored_generation;
  }
  robust::HealthEvent ev;
  ev.type = robust::EventType::kGenerationRollback;
  ev.severity = robust::Severity::kWarning;
  ev.epoch = bad_generation;
  ev.detail = name + ": rolled back to generation " +
              std::to_string(restored_generation) + " (" + why + ")";
  telemetry::event("health/" + to_string(ev.type), ev.describe());
  health_log_.push_back(std::move(ev));
  QuarantineRecord q;
  q.model = name;
  q.generation = bad_generation;
  q.reason = "rollback:" + why;
  quarantine(name, std::move(q));
  telemetry::gauge("serve/" + name + "/generation",
                   static_cast<double>(restored_generation));
}

std::int64_t ModelRegistry::served_generation(const std::string& name) const {
  auto it = tenants_.find(name);
  return it == tenants_.end() ? -1 : it->second.served_generation;
}

const robust::CheckpointScrubber* ModelRegistry::scrubber(
    const std::string& name) const {
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.scrubber.get();
}

std::vector<std::string> ModelRegistry::tenants() const { return order_; }

}  // namespace pt::serve
