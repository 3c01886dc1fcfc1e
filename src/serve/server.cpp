#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "telemetry/metrics.h"
#include "util/logging.h"

namespace pt::serve {

namespace {

constexpr std::int64_t kMaxLoopIterations = 50'000'000;

double percentile(std::vector<Tick>& sorted_values, double p) {
  if (sorted_values.empty()) return 0;
  const auto n = static_cast<std::int64_t>(sorted_values.size());
  std::int64_t idx = static_cast<std::int64_t>(
      std::max(0.0, p * static_cast<double>(n) - 1.0));
  idx = std::min(idx, n - 1);
  return static_cast<double>(sorted_values[static_cast<std::size_t>(idx)]);
}

}  // namespace

void ServeConfig::validate() const {
  if (workers < 1) {
    throw std::invalid_argument("ServeConfig: workers must be >= 1");
  }
  if (max_batch < 1) {
    throw std::invalid_argument("ServeConfig: max_batch must be >= 1");
  }
  if (dispatch_margin < 0) {
    throw std::invalid_argument("ServeConfig: dispatch_margin must be >= 0");
  }
  if (flops_per_tick <= 0) {
    throw std::invalid_argument("ServeConfig: flops_per_tick must be > 0");
  }
  if (poll_interval < 0) {
    throw std::invalid_argument("ServeConfig: poll_interval must be >= 0");
  }
  canary.validate();
  health.validate();
  breaker.validate();
  try {
    robust::validate_serving_faults(fault_spec);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("ServeConfig: fault_spec: ") +
                                e.what());
  }
}

ServeRuntime::ServeRuntime(ServeConfig cfg, exec::ExecContext& ctx)
    : cfg_(cfg),
      ctx_(&ctx),
      registry_([&] {
        RegistryConfig rc;
        rc.form = cfg.form;
        rc.gating_threshold = cfg.gating_threshold;
        rc.flops_per_tick = cfg.flops_per_tick;
        rc.max_batch = cfg.max_batch;
        rc.canary = cfg.canary;
        return rc;
      }()),
      scheduler_(SchedulerConfig{cfg.dispatch_margin}) {
  cfg_.validate();
  injector_ = robust::FaultInjector::from_string(cfg_.fault_spec,
                                                 cfg_.fault_seed);
}

void ServeRuntime::ensure_tenant(const std::string& name) {
  if (mailboxes_.count(name) > 0) return;
  MailboxPolicy policy;
  policy.max_queue = cfg_.max_queue;
  policy.max_batch = cfg_.max_batch;
  policy.shed_on_infeasible = cfg_.shed_on_infeasible;
  mailboxes_.emplace(name, std::make_unique<Mailbox>(name, policy));
  guards_.emplace(name, std::make_unique<Guard>(cfg_.health, cfg_.breaker));
  mailbox_order_.push_back(name);
}

void ServeRuntime::add_model(const std::string& name,
                             const std::string& checkpoint_dir, Shape input) {
  registry_.add_model(name, checkpoint_dir, std::move(input));
  ensure_tenant(name);
}

SwapRecord ServeRuntime::publish_network(const std::string& name,
                                         graph::Network net,
                                         std::int64_t generation, Shape input) {
  ensure_tenant(name);
  std::shared_ptr<ModelVersion> previous = leases_.acquire(name);
  SwapRecord rec = registry_.publish_network(name, std::move(net), generation,
                                             std::move(input), leases_);
  mailboxes_.at(name)->set_batch_service_ticks(rec.service_ticks_per_batch);
  begin_probation(name, std::move(previous), now_);
  return rec;
}

void ServeRuntime::schedule(Tick tick, std::function<void()> fn) {
  actions_.emplace_back(tick, std::move(fn));
  std::stable_sort(actions_.begin(), actions_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
}

std::int64_t ServeRuntime::inflight_for(const std::string& model) const {
  std::int64_t n = 0;
  for (const InFlight& f : inflight_) n += (f.model == model) ? 1 : 0;
  return n;
}

void ServeRuntime::begin_probation(const std::string& model,
                                   std::shared_ptr<ModelVersion> previous,
                                   Tick now) {
  auto git = guards_.find(model);
  if (git != guards_.end()) {
    git->second->health.reset();
    git->second->breaker.reset(now, "new generation published");
  }
  if (previous && cfg_.health.auto_rollback && cfg_.health.probation_ticks > 0) {
    probation_[model] =
        Probation{std::move(previous), now + cfg_.health.probation_ticks};
  } else {
    probation_.erase(model);
  }
}

void ServeRuntime::maybe_rollback(const std::string& model, Tick now,
                                  std::vector<RollbackEvent>& out) {
  if (!cfg_.health.auto_rollback) return;
  auto pit = probation_.find(model);
  if (pit == probation_.end() || !pit->second.previous) return;
  auto git = guards_.find(model);
  if (git == guards_.end()) return;
  const char* breach = git->second->health.breach(now);
  if (breach == nullptr) return;
  std::shared_ptr<ModelVersion> current = leases_.acquire(model);
  if (!current || current == pit->second.previous) return;

  const std::int64_t bad_generation = current->generation;
  std::shared_ptr<ModelVersion> restored = std::move(pit->second.previous);
  probation_.erase(pit);
  const std::int64_t restored_generation = restored->generation;
  const Tick restored_ticks = restored->service_ticks_per_batch;
  const std::int64_t epoch = leases_.rollback(model, std::move(restored));
  registry_.note_rollback(model, bad_generation, restored_generation, breach);
  auto mb = mailboxes_.find(model);
  if (mb != mailboxes_.end()) {
    mb->second->set_batch_service_ticks(restored_ticks);
  }
  git->second->health.reset();
  git->second->breaker.reset(now, "rollback");

  RollbackEvent ev;
  ev.model = model;
  ev.tick = now;
  ev.from_generation = bad_generation;
  ev.to_generation = restored_generation;
  ev.lease_epoch = epoch;
  ev.reason = breach;
  telemetry::event("serve/rollback",
                   model + " generation " + std::to_string(bad_generation) +
                       " -> " + std::to_string(restored_generation) +
                       " @ tick " + std::to_string(now) + " (" + ev.reason +
                       ")");
  out.push_back(std::move(ev));
}

bool ServeRuntime::execute_batch(BatchPlan& plan, std::vector<Response>& out) {
  const std::int64_t n = static_cast<std::int64_t>(plan.requests.size());
  const Shape& sample = plan.requests.front().input.shape();
  std::vector<std::int64_t> dims;
  dims.push_back(n);
  for (std::int64_t d = 0; d < sample.rank(); ++d) dims.push_back(sample[d]);
  Tensor batch{Shape(dims)};
  const std::int64_t stride = sample.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    std::memcpy(batch.data() + i * stride, plan.requests[i].input.data(),
                sizeof(float) * static_cast<std::size_t>(stride));
  }
  Tensor logits = plan.version->net.forward(*ctx_, batch, false);
  if (logits.shape().rank() != 2 || logits.shape()[0] != n) {
    throw std::runtime_error("serve: unexpected output shape " +
                             logits.shape().to_string() + " for model '" +
                             plan.model + "'");
  }
  // flaky-output fires here, before the health scan: an injected NaN is
  // indistinguishable from a genuinely corrupt generation downstream.
  injector_.corrupt_output(logits, plan.version->generation, plan.batch_id);
  bool healthy = true;
  const std::int64_t total = logits.numel();
  for (std::int64_t i = 0; i < total; ++i) {
    if (!std::isfinite(logits.data()[i])) {
      healthy = false;
      break;
    }
  }
  if (!healthy) telemetry::count("serve/nan_output_batches");
  const std::int64_t classes = logits.shape()[1];
  out.clear();
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const Request& r = plan.requests[static_cast<std::size_t>(i)];
    Response resp;
    resp.request_id = r.id;
    resp.arrival = r.arrival;
    resp.formed = plan.formed;
    resp.batch_id = plan.batch_id;
    resp.generation = plan.version->generation;
    resp.lease_epoch = plan.version->lease_epoch;
    std::vector<float> row(
        logits.data() + i * classes,
        logits.data() + (i + 1) * classes);
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      if (row[static_cast<std::size_t>(c)] > row[static_cast<std::size_t>(best)]) {
        best = c;
      }
    }
    resp.argmax = best;
    resp.logits = Tensor::from_values({classes}, std::move(row));
    out.push_back(std::move(resp));
  }
  return healthy;
}

ServeReport ServeRuntime::run(const std::vector<Request>& trace) {
  if (ran_) {
    throw std::logic_error("ServeRuntime::run: already ran (one-shot)");
  }
  ran_ = true;
  telemetry::ScopedTimer run_span("serve/run");

  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i].arrival < trace[i - 1].arrival) {
      throw std::invalid_argument("serve: trace arrivals not monotone at id " +
                                  std::to_string(trace[i].id));
    }
  }

  std::vector<Worker> workers(static_cast<std::size_t>(cfg_.workers));
  std::map<std::int64_t, Response> responses;  // request id -> response
  std::vector<SwapEvent> swap_events;
  std::vector<RollbackEvent> rollback_events;
  std::int64_t shed_count = 0;
  std::int64_t shed_circuit_open = 0;
  std::int64_t batches_done = 0;
  std::int64_t batched_requests = 0;
  Tick last_completion = 0;

  std::size_t next_arrival = 0;
  std::size_t next_action = 0;
  Tick now = 0;
  if (!trace.empty()) now = std::min<Tick>(now, trace.front().arrival);
  if (!actions_.empty()) now = std::min(now, actions_.front().first);

  auto any_mailbox_pending = [&] {
    for (const auto& [name, mb] : mailboxes_) {
      (void)name;
      if (!mb->empty()) return true;
    }
    return false;
  };

  std::vector<Mailbox*> mailbox_ptrs;
  for (const std::string& name : mailbox_order_) {
    mailbox_ptrs.push_back(mailboxes_.at(name).get());
  }

  std::int64_t iterations = 0;
  while (next_arrival < trace.size() || next_action < actions_.size() ||
         any_mailbox_pending() || !inflight_.empty()) {
    if (++iterations > kMaxLoopIterations) {
      throw std::runtime_error("serve: event loop failed to drain");
    }
    now_ = now;

    // 1. Scheduled actions (tests/benches drop checkpoint files here).
    while (next_action < actions_.size() &&
           actions_[next_action].first <= now) {
      actions_[next_action].second();
      ++next_action;
    }

    // 2. Release lease pins of batches whose modeled completion passed;
    // expired probation pins release too (the superseded version kept as a
    // rollback target finally retires); superseded versions retire when
    // their last pin drops.
    {
      auto it = inflight_.begin();
      while (it != inflight_.end()) {
        it = it->completion <= now ? inflight_.erase(it) : std::next(it);
      }
      auto pit = probation_.begin();
      while (pit != probation_.end()) {
        pit = pit->second.until <= now ? probation_.erase(pit)
                                       : std::next(pit);
      }
      leases_.sweep_retired();
    }

    // 3. Registry poll: discover + validate + canary-gate + hot-swap new
    // generations. The displaced incumbent becomes the rollback target for
    // the probation window.
    if (cfg_.poll_interval > 0 && now >= 0 && now % cfg_.poll_interval == 0) {
      std::map<std::string, std::shared_ptr<ModelVersion>> incumbents;
      for (const std::string& name : mailbox_order_) {
        incumbents[name] = leases_.acquire(name);
      }
      const auto swaps = registry_.poll(*ctx_, leases_);
      for (const SwapRecord& rec : swaps) {
        SwapEvent ev;
        ev.record = rec;
        ev.tick = now;
        auto mb = mailboxes_.find(rec.model);
        ev.queued = mb == mailboxes_.end() ? 0 : mb->second->size();
        ev.inflight = inflight_for(rec.model);
        if (mb != mailboxes_.end()) {
          mb->second->set_batch_service_ticks(rec.service_ticks_per_batch);
        }
        auto inc = incumbents.find(rec.model);
        begin_probation(rec.model,
                        inc == incumbents.end() ? nullptr : inc->second, now);
        telemetry::event(
            "serve/swap",
            rec.model + " generation " + std::to_string(rec.from_generation) +
                " -> " + std::to_string(rec.to_generation) + " @ tick " +
                std::to_string(now) + " (" + std::to_string(ev.queued) +
                " queued, " + std::to_string(ev.inflight) + " in flight)");
        swap_events.push_back(std::move(ev));
      }
    }

    // 4. Admission of this tick's arrivals. The circuit breaker sees every
    // arrival first: open means shed kCircuitOpen before the mailbox is
    // even offered; half-open admits a bounded number of probes.
    while (next_arrival < trace.size() &&
           trace[next_arrival].arrival <= now) {
      const Request& r = trace[next_arrival];
      ++next_arrival;
      auto mb = mailboxes_.find(r.model);
      ShedReason reason = ShedReason::kUnknownModel;
      if (mb != mailboxes_.end()) {
        auto& guard = *guards_.at(r.model);
        CircuitBreaker::Admission adm = CircuitBreaker::Admission::kAdmit;
        if (cfg_.breaker.enabled) adm = guard.breaker.admit(now);
        if (adm == CircuitBreaker::Admission::kShed) {
          reason = ShedReason::kCircuitOpen;
          ++shed_circuit_open;
          telemetry::count("serve/shed_circuit_open");
        } else {
          reason = mb->second->offer(r, now);
        }
        guard.health.record_arrival(now, reason != ShedReason::kNone);
      } else {
        telemetry::count("serve/shed_unknown_model");
      }
      if (reason != ShedReason::kNone) {
        Response resp;
        resp.request_id = r.id;
        resp.shed = true;
        resp.reason = reason;
        resp.arrival = r.arrival;
        resp.completion = now;
        responses.emplace(r.id, std::move(resp));
        ++shed_count;
      }
      if (mb != mailboxes_.end()) {
        maybe_rollback(r.model, now, rollback_events);
      }
    }

    // 5. Batch formation (worker-independent) + immediate execution in
    // formation order on the shared exec context.
    std::vector<BatchPlan> plans = scheduler_.form(now, mailbox_ptrs, leases_);

    // 6. Modeled worker assignment: lowest (free_at, id) worker first.
    for (BatchPlan& plan : plans) {
      std::vector<Response> batch_responses;
      const bool healthy = execute_batch(plan, batch_responses);
      const std::int64_t n = static_cast<std::int64_t>(plan.requests.size());
      Tick service = plan.version->service_ticks(n, cfg_.max_batch);
      // slow-model inflates the modeled service time of this generation's
      // batches — before BOTH the serial deadline-miss estimate below and
      // the actual worker assignment, so the guard's verdict and the
      // clock agree.
      const double factor = injector_.slow_model_factor(
          plan.version->generation, plan.batch_id);
      if (factor > 1.0) {
        service = std::max<Tick>(
            1, static_cast<Tick>(std::llround(
                   static_cast<double>(service) * factor)));
        telemetry::count("serve/slow_model_faults");
      }
      // Worker-count-invariant deadline-miss estimate: formation tick plus
      // modeled service, as if served serially — NOT the worker-assigned
      // completion, which depends on how many modeled workers exist.
      std::int64_t modeled_misses = 0;
      for (const Request& req : plan.requests) {
        modeled_misses += (plan.formed + service > req.deadline) ? 1 : 0;
      }
      std::size_t w = 0;
      for (std::size_t i = 1; i < workers.size(); ++i) {
        if (workers[i].free_at < workers[w].free_at) w = i;
      }
      const Tick start = std::max(now, workers[w].free_at);
      const Tick completion = start + service;
      workers[w].free_at = completion;
      last_completion = std::max(last_completion, completion);
      for (std::size_t i = 0; i < batch_responses.size(); ++i) {
        Response& resp = batch_responses[i];
        resp.worker = static_cast<int>(w);
        resp.start = start;
        resp.completion = completion;
        resp.late = completion > plan.requests[i].deadline;
        telemetry::observe("serve/latency_ticks",
                           static_cast<double>(completion - resp.arrival));
        responses.emplace(resp.request_id, std::move(resp));
      }
      ++batches_done;
      batched_requests += static_cast<std::int64_t>(plan.requests.size());
      InFlight f;
      f.completion = completion;
      f.model = plan.model;
      f.pin = plan.version;
      inflight_.push_back(std::move(f));
      auto git = guards_.find(plan.model);
      if (git != guards_.end()) {
        git->second->health.record_batch(now, !healthy, modeled_misses);
        if (cfg_.breaker.enabled) git->second->breaker.on_batch(now, healthy);
      }
      maybe_rollback(plan.model, now, rollback_events);
    }

    // Fast-forward the modeled clock to the next interesting tick.
    Tick next = std::numeric_limits<Tick>::max();
    if (next_arrival < trace.size()) {
      next = std::min(next, trace[next_arrival].arrival);
    }
    if (next_action < actions_.size()) {
      next = std::min(next, actions_[next_action].first);
    }
    for (const InFlight& f : inflight_) next = std::min(next, f.completion);
    for (Mailbox* mb : mailbox_ptrs) {
      if (mb->empty()) continue;
      const Tick due_tick = mb->oldest_deadline() -
                            mb->policy().batch_service_ticks -
                            cfg_.dispatch_margin;
      next = std::min(next, std::max(now + 1, due_tick));
    }
    if (cfg_.poll_interval > 0 &&
        (next_arrival < trace.size() || any_mailbox_pending())) {
      const Tick next_poll = (now / cfg_.poll_interval + 1) * cfg_.poll_interval;
      next = std::min(next, next_poll);
    }
    if (next == std::numeric_limits<Tick>::max()) break;  // drained
    now = std::max(next, now + 1);
  }
  // Release surviving probation pins before the final sweep: the run is
  // over, nothing can roll back anymore, and tests expect superseded
  // versions to count as retired even when the run ends mid-probation.
  probation_.clear();
  leases_.sweep_retired();

  ServeReport report;
  report.workers = cfg_.workers;
  report.requests = static_cast<std::int64_t>(trace.size());
  report.shed = shed_count;
  report.batches = batches_done;
  report.mean_batch_size =
      batches_done > 0 ? static_cast<double>(batched_requests) /
                             static_cast<double>(batches_done)
                       : 0;
  report.last_completion = last_completion;
  report.swaps = std::move(swap_events);
  report.leases_retired = leases_.retired();
  report.shed_circuit_open = shed_circuit_open;
  report.rollbacks = std::move(rollback_events);
  report.quarantined =
      static_cast<std::int64_t>(registry_.quarantined().size());
  report.health_events = registry_.health_log();

  std::map<std::string, std::int64_t> rollbacks_by_model;
  for (const RollbackEvent& ev : report.rollbacks) {
    ++rollbacks_by_model[ev.model];
  }
  for (const std::string& name : mailbox_order_) {
    auto git = guards_.find(name);
    if (git == guards_.end()) continue;
    const auto& transitions = git->second->breaker.transitions();
    if (!transitions.empty()) {
      report.breaker_transitions.emplace(name, transitions);
    }
    for (const BreakerTransition& t : transitions) {
      robust::HealthEvent ev;
      ev.type = robust::EventType::kBreakerStateChange;
      ev.severity = robust::Severity::kWarning;
      ev.detail = name + ": " + std::string(to_string(t.from)) + " -> " +
                  to_string(t.to) + " @ tick " + std::to_string(t.tick) +
                  " (" + t.why + ")";
      report.health_events.push_back(std::move(ev));
    }
    telemetry::gauge(
        "serve/" + name + "/breaker_state",
        static_cast<double>(static_cast<int>(git->second->breaker.state())));
    telemetry::gauge("serve/" + name + "/rollbacks",
                     static_cast<double>(rollbacks_by_model[name]));
  }

  std::vector<Tick> latencies;
  for (auto& [id, resp] : responses) {
    (void)id;
    if (!resp.shed) {
      ++report.completed;
      report.late += resp.late ? 1 : 0;
      latencies.push_back(resp.completion - resp.arrival);
    }
    report.responses.push_back(std::move(resp));
  }
  if (report.responses.size() != trace.size()) {
    throw std::logic_error("serve: response count " +
                           std::to_string(report.responses.size()) +
                           " != trace size " + std::to_string(trace.size()));
  }
  report.admitted = report.requests - report.shed;
  report.dropped = report.admitted - report.completed;
  std::sort(latencies.begin(), latencies.end());
  report.p50_latency_ticks = percentile(latencies, 0.50);
  report.p99_latency_ticks = percentile(latencies, 0.99);
  telemetry::count("serve/completed", static_cast<double>(report.completed));
  return report;
}

}  // namespace pt::serve
