// ServeRuntime: the multi-tenant serving event loop (ISSUE 8 tentpole).
//
// One runtime owns, per tenant, a bounded Mailbox; globally, a
// deterministic Scheduler, a LeaseTable, a ModelRegistry, and a set of
// *modeled* workers. run(trace) advances the modeled clock tick by tick:
//
//   1. scheduled actions fire (tests/benches drop new checkpoint files),
//   2. in-flight batches whose modeled completion has passed release their
//      lease pins (superseded versions retire when the last pin drops),
//   3. the registry polls for new checkpoint generations (hot swap),
//   4. arrivals are admitted or shed (structured reasons),
//   5. the scheduler forms batches — each batch pins the tenant's current
//      lease and its forward pass executes immediately in formation order
//      on the shared exec::ExecContext,
//   6. formed batches are assigned to modeled workers (lowest free worker
//      first), which only decides start/completion *ticks*.
//
// Serving resilience (ISSUE 10) rides the same loop: the registry's
// CanaryGate screens every poll() publish; after an accepted swap the
// superseded version is held as a probation pin for kProbationTicks, and
// a per-model GenerationHealth breach (NaN outputs / modeled deadline
// misses, both worker-count-invariant) triggers automatic rollback —
// a LeaseTable epoch bump back to the pinned version, zero-drop by
// construction, with the indicted generation quarantined so the next
// poll cannot republish it. A per-model CircuitBreaker additionally
// sheds arrivals (ShedReason::kCircuitOpen) while the tenant is
// known-bad, with deterministic half-open probe admission.
//
// Determinism contract (DESIGN.md §13): admission, batch composition,
// batch order, pinned lease epochs, swap boundaries, and every response
// payload are a pure function of (trace, config, checkpoint-file
// schedule). The exec thread count is bitwise-invisible (PR 4), and the
// modeled worker count only moves the clock columns (start, completion,
// latency, throughput) — never a payload bit. Zero-drop is structural:
// admission is the only rejection point, and the loop runs to drain, so
// admitted == completed in every report.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/context.h"
#include "robust/fault.h"
#include "serve/breaker.h"
#include "serve/mailbox.h"
#include "serve/registry.h"
#include "serve/scheduler.h"

namespace pt::serve {

/// The runtime's knobs. The registry's (flops_per_tick, max_batch,
/// canary) are inherited from RegistryConfig, and the runtime hands this
/// config to its registry as is.
struct ServeConfig : RegistryConfig {
  int workers = 1;             ///< modeled lease-holding workers
  std::int64_t max_queue = 64; ///< per-tenant mailbox depth bound (<=0: inf)
  Tick poll_interval = 0;      ///< registry poll cadence; 0 = never poll

  // Serving resilience (ISSUE 10).
  GenerationHealthConfig health;  ///< post-swap guard + rollback policy
  BreakerConfig breaker;          ///< per-model circuit breaker
  /// Serve-side fault injection (robust::FaultInjector grammar): only the
  /// serve-batch kinds fire inside the runtime, keyed on (generation,
  /// batch id); validate() rejects any other clause. "" disarms. The
  /// injector's seed is a constant, so the spec alone fixes the faults.
  std::string fault_spec;

  /// Throws std::invalid_argument naming the offending field; checks the
  /// inherited registry fields too.
  void validate() const;
};

/// One hot swap as it happened under load.
struct SwapEvent {
  SwapRecord record;
  Tick tick = 0;
  std::int64_t queued = 0;    ///< tenant requests queued at the boundary
  std::int64_t inflight = 0;  ///< tenant batches still on the old lease
};

/// One automatic rollback as it happened under load.
struct RollbackEvent {
  std::string model;
  Tick tick = 0;
  std::int64_t from_generation = -1;  ///< the indicted generation
  std::int64_t to_generation = -1;    ///< generation restored from probation
  std::int64_t lease_epoch = -1;      ///< epoch of the restored lease
  std::string reason;                 ///< breach counter that tripped
};

struct ServeReport {
  std::vector<Response> responses;  ///< ascending request id; one per request
  int workers = 0;
  std::int64_t requests = 0;
  std::int64_t admitted = 0;
  std::int64_t shed = 0;
  std::int64_t completed = 0;
  std::int64_t late = 0;     ///< served after their deadline (never dropped)
  std::int64_t dropped = 0;  ///< admitted - completed; 0 by construction
  std::int64_t batches = 0;
  double mean_batch_size = 0;
  Tick last_completion = 0;
  double p50_latency_ticks = 0;  ///< completed requests only
  double p99_latency_ticks = 0;
  std::vector<SwapEvent> swaps;
  std::int64_t leases_retired = 0;

  // Serving resilience (ISSUE 10).
  std::int64_t shed_circuit_open = 0;  ///< sheds with ShedReason::kCircuitOpen
  std::int64_t quarantined = 0;        ///< generations the registry refused
  std::vector<RollbackEvent> rollbacks;
  std::map<std::string, std::vector<BreakerTransition>> breaker_transitions;
  /// Registry health log (canary rejections, rollbacks) followed by one
  /// kBreakerStateChange event per breaker transition.
  std::vector<robust::HealthEvent> health_events;
};

class ServeRuntime {
 public:
  ServeRuntime(ServeConfig cfg, exec::ExecContext& ctx);

  ModelRegistry& registry() { return registry_; }
  LeaseTable& leases() { return leases_; }

  /// Registers a tenant watching `checkpoint_dir` (see ModelRegistry).
  void add_model(const std::string& name, const std::string& checkpoint_dir,
                 Shape input);
  /// Publishes an in-memory network directly under `generation`.
  SwapRecord publish_network(const std::string& name, graph::Network net,
                             std::int64_t generation, Shape input);

  /// Schedules `fn` to run when the modeled clock reaches `tick` (before
  /// that tick's registry poll) — how tests and benches make checkpoint
  /// generations appear mid-run at a deterministic instant.
  void schedule(Tick tick, std::function<void()> fn);

  /// Serves `trace` (arrival-ordered) to drain and returns the report.
  /// Callable once per runtime instance.
  ServeReport run(const std::vector<Request>& trace);

 private:
  struct Worker {
    Tick free_at = 0;
  };
  struct InFlight {
    Tick completion = 0;
    std::string model;
    std::shared_ptr<ModelVersion> pin;
  };
  /// Post-swap guard state of one tenant.
  struct Guard {
    GenerationHealth health;
    CircuitBreaker breaker;
    Guard(const GenerationHealthConfig& h, const BreakerConfig& b)
        : health(h), breaker(b) {}
  };
  /// Rollback target held resident through the post-swap probation window.
  struct Probation {
    std::shared_ptr<ModelVersion> previous;
    Tick until = 0;
  };

  void ensure_tenant(const std::string& name);
  /// Returns true when every logit of the batch is finite (the flaky-output
  /// fault is injected before the scan, so an injected NaN reads unhealthy).
  bool execute_batch(BatchPlan& plan, std::vector<Response>& out);
  std::int64_t inflight_for(const std::string& model) const;
  void begin_probation(const std::string& model,
                       std::shared_ptr<ModelVersion> previous, Tick now);
  /// Rolls `model` back to its probation pin if the guard reports a breach
  /// and the current lease is still the indicted one.
  void maybe_rollback(const std::string& model, Tick now,
                      std::vector<RollbackEvent>& out);

  ServeConfig cfg_;
  exec::ExecContext* ctx_;
  ModelRegistry registry_;
  LeaseTable leases_;
  Scheduler scheduler_;
  robust::FaultInjector injector_;
  std::map<std::string, std::unique_ptr<Mailbox>> mailboxes_;
  std::map<std::string, std::unique_ptr<Guard>> guards_;
  std::map<std::string, Probation> probation_;
  std::vector<std::string> mailbox_order_;
  std::vector<std::pair<Tick, std::function<void()>>> actions_;
  std::vector<InFlight> inflight_;
  Tick now_ = 0;  ///< modeled clock; lets mid-run publishes date probation
  bool ran_ = false;
};

}  // namespace pt::serve
