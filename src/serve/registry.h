// ModelRegistry: the bridge from the training side's checkpoint output to
// the serving side's lease table.
//
// Each tenant watches one checkpoint directory — the same directory a
// PruneTrainer writes `ckpt-epoch-<N>.bin` generations into. poll():
//
//  1. lists new generations (ckpt::list_generations, read-only),
//  2. CRC-validates them with the PR 7 CheckpointScrubber (keep_last_k = 0:
//     serving never deletes the trainer's files) — a torn or bit-rotted
//     generation is skipped, not loaded,
//  3. loads the newest scrubbed-valid generation newer than what is being
//     served (ckpt::Checkpoint::load + restore_network),
//  4. materializes it for inference (prune::materialize_inference, in the
//     channel-union form the trainer's reconfiguration leaves),
//  5. prices it (cost::FlopsModel -> modeled batch service ticks),
//  6. canary-validates it against the incumbent (serve::CanaryGate,
//     ISSUE 10): shadow-executed probe logits must be finite, agree with
//     the incumbent's reference argmaxes within budget, and stay inside
//     the modeled-latency budget — a rejected generation is *quarantined*
//     (telemetry + serve/quarantined_generations counter + a structured
//     kCanaryRejected health event) and never retried, and
//  7. publishes it into the LeaseTable, bumping the lease epoch — the
//     hot swap. In-flight batches keep their pinned old version.
//
// poll() is driven by the runtime's modeled clock, so given the same
// sequence of files appearing between polls, swaps land on the same tick
// every run — the swap boundary is part of the deterministic trace.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/context.h"
#include "graph/network.h"
#include "robust/health.h"
#include "robust/integrity.h"
#include "serve/canary.h"
#include "serve/lease.h"

namespace pt::serve {

/// The registry's knobs. ServeConfig extends it, so a runtime's registry
/// is configured by the runtime's own fields.
struct RegistryConfig {
  /// Modeled worker compute rate: FLOPs retired per modeled tick. Converts
  /// a version's per-sample inference FLOPs into batch service ticks, so a
  /// pruned (smaller) model is modeled faster — the swap_speedup the bench
  /// measures.
  double flops_per_tick = 2e6;
  /// Dynamic-batching cap, and the batch size the service estimate prices.
  std::int64_t max_batch = 8;
  /// Canary gate every poll() publish passes through (ISSUE 10). Direct
  /// publish_network() calls bypass it: that is the cold-start/test path,
  /// where the caller *is* the provenance.
  CanaryConfig canary;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// One completed hot swap, as poll() reports it.
struct SwapRecord {
  std::string model;
  std::int64_t from_generation = -1;  ///< -1: first publish (cold start)
  std::int64_t to_generation = -1;
  std::int64_t lease_epoch = -1;
  std::string path;                   ///< checkpoint file served from
  double inference_flops = 0;         ///< per sample, post-materialization
  Tick service_ticks_per_batch = 1;
  CanaryReport canary;  ///< kSkipped outcome for direct publishes
};

/// One generation the registry refused to serve and will never retry.
struct QuarantineRecord {
  std::string model;
  std::int64_t generation = -1;
  std::string path;     ///< "" for rollback quarantines
  std::string reason;   ///< "scrub-invalid" | "canary:<outcome>" | "rollback:<breach>"
  CanaryReport canary;  ///< populated for canary rejections
};

class ModelRegistry {
 public:
  explicit ModelRegistry(RegistryConfig cfg);

  const RegistryConfig& config() const { return cfg_; }

  /// Registers a tenant watching `checkpoint_dir`. `input` is the
  /// per-sample input shape ([C, H, W]) the cost model prices with. Throws
  /// if the tenant already exists.
  void add_model(const std::string& name, const std::string& checkpoint_dir,
                 Shape input);

  /// Publishes an in-memory network directly (tests, cold starts), under
  /// `generation`. Applies the same materialization + pricing as poll().
  SwapRecord publish_network(const std::string& name, graph::Network net,
                             std::int64_t generation, Shape input,
                             LeaseTable& leases);

  /// Scans every watched tenant for new checkpoint generations and
  /// hot-swaps each tenant at most one step forward (to its newest
  /// scrubbed-valid generation). Returns the swaps performed, in tenant
  /// registration order.
  std::vector<SwapRecord> poll(exec::ExecContext& ctx, LeaseTable& leases);

  /// Generation currently served for `name` (-1 before the first publish).
  std::int64_t served_generation(const std::string& name) const;

  /// Records an automatic rollback performed by the runtime: the indicted
  /// generation is quarantined (poll() will never republish it even though
  /// it is the newest file on disk) and `restored_generation` becomes the
  /// served generation again. Emits the quarantine telemetry and a
  /// kGenerationRollback health event. `why` names the breach.
  void note_rollback(const std::string& name, std::int64_t bad_generation,
                     std::int64_t restored_generation, const std::string& why);

  /// Every generation refused so far (scrub-invalid, canary-rejected, or
  /// rollback-indicted), in refusal order.
  const std::vector<QuarantineRecord>& quarantined() const {
    return quarantine_;
  }

  /// Structured serve-side health events (canary rejections, rollbacks).
  const std::vector<robust::HealthEvent>& health_log() const {
    return health_log_;
  }

  /// The scrubber's validity ledger for a watched tenant (nullptr when the
  /// tenant is unknown or publishes directly).
  const robust::CheckpointScrubber* scrubber(const std::string& name) const;

  std::vector<std::string> tenants() const;  ///< registration order

 private:
  struct Tenant {
    std::string dir;  ///< empty: direct-publish only
    Shape input;
    std::int64_t served_generation = -1;
    std::unique_ptr<robust::CheckpointScrubber> scrubber;
    std::vector<std::string> noted;  ///< paths already note_saved
    std::vector<std::int64_t> quarantined_epochs;  ///< never (re)published
    std::vector<std::string> flagged_invalid;  ///< scrub failures announced
  };

  /// Materializes + prices `net` into an unpublished ModelVersion.
  std::shared_ptr<ModelVersion> make_version(graph::Network net,
                                             std::int64_t generation,
                                             const Shape& input) const;

  SwapRecord publish_version(const std::string& name,
                             std::shared_ptr<ModelVersion> version,
                             const std::string& path, LeaseTable& leases);

  /// Appends the record, bumps serve/quarantined_generations, emits the
  /// telemetry event, and marks the epoch untouchable for `name`.
  void quarantine(const std::string& name, QuarantineRecord rec);

  RegistryConfig cfg_;
  CanaryGate gate_;
  std::map<std::string, Tenant> tenants_;
  std::vector<std::string> order_;
  std::vector<QuarantineRecord> quarantine_;
  std::vector<robust::HealthEvent> health_log_;
};

}  // namespace pt::serve
