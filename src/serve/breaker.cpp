#include "serve/breaker.h"

#include <stdexcept>

#include "telemetry/metrics.h"

namespace pt::serve {

void GenerationHealthConfig::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("GenerationHealthConfig: " + what);
  };
  if (window < 1) {
    fail("window must be >= 1 (got " + std::to_string(window) + ")");
  }
}

GenerationHealth::GenerationHealth(GenerationHealthConfig cfg) : cfg_(cfg) {
  cfg_.validate();
}

void GenerationHealth::reset() {
  nan_ticks_.clear();
  misses_.clear();
}

void GenerationHealth::prune(Tick now) {
  const Tick horizon = now - cfg_.window;
  while (!nan_ticks_.empty() && nan_ticks_.front() <= horizon) {
    nan_ticks_.pop_front();
  }
  while (!misses_.empty() && misses_.front().first <= horizon) {
    misses_.pop_front();
  }
}

void GenerationHealth::record_batch(Tick now, bool nan_output,
                                    std::int64_t modeled_misses) {
  if (nan_output) {
    nan_ticks_.push_back(now);
    ++nan_total_;
  }
  if (modeled_misses > 0) {
    misses_.emplace_back(now, modeled_misses);
    miss_total_ += modeled_misses;
  }
}

const char* GenerationHealth::breach(Tick now) {
  prune(now);
  if (cfg_.max_nan_batches >= 0 &&
      static_cast<std::int64_t>(nan_ticks_.size()) > cfg_.max_nan_batches) {
    return "nan-output";
  }
  if (cfg_.max_deadline_misses >= 0) {
    std::int64_t misses = 0;
    for (const auto& [tick, n] : misses_) {
      (void)tick;
      misses += n;
    }
    if (misses > cfg_.max_deadline_misses) return "deadline-miss";
  }
  return nullptr;
}

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

void BreakerConfig::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("BreakerConfig: " + what);
  };
  if (failure_threshold < 1) {
    fail("failure_threshold must be >= 1 (got " +
         std::to_string(failure_threshold) + ")");
  }
  if (open_ticks < 1) {
    fail("open_ticks must be >= 1 (got " + std::to_string(open_ticks) + ")");
  }
  if (half_open_probes < 1) {
    fail("half_open_probes must be >= 1 (got " +
         std::to_string(half_open_probes) + ")");
  }
  if (close_after < 1) {
    fail("close_after must be >= 1 (got " + std::to_string(close_after) + ")");
  }
}

CircuitBreaker::CircuitBreaker(BreakerConfig cfg) : cfg_(cfg) {
  cfg_.validate();
}

void CircuitBreaker::transition(Tick now, BreakerState to,
                                const std::string& why) {
  transitions_.push_back({now, state_, to, why});
  telemetry::event("serve/breaker", std::string(to_string(state_)) + " -> " +
                                        to_string(to) + " @ tick " +
                                        std::to_string(now) + " (" + why +
                                        ")");
  state_ = to;
}

CircuitBreaker::Admission CircuitBreaker::admit(Tick now) {
  if (state_ == BreakerState::kOpen) {
    if (now >= opened_at_ + cfg_.open_ticks) {
      probes_admitted_ = 0;
      probe_successes_ = 0;
      transition(now, BreakerState::kHalfOpen, "cooldown elapsed");
    } else {
      return Admission::kShed;
    }
  }
  if (state_ == BreakerState::kHalfOpen) {
    if (probes_admitted_ < cfg_.half_open_probes) {
      ++probes_admitted_;
      return Admission::kProbe;
    }
    return Admission::kShed;
  }
  return Admission::kAdmit;
}

void CircuitBreaker::on_batch(Tick now, bool healthy) {
  if (state_ == BreakerState::kClosed) {
    if (healthy) {
      consecutive_failures_ = 0;
      return;
    }
    if (++consecutive_failures_ >= cfg_.failure_threshold) {
      opened_at_ = now;
      transition(now, BreakerState::kOpen,
                 std::to_string(consecutive_failures_) +
                     " consecutive unhealthy batches");
    }
    return;
  }
  if (state_ == BreakerState::kHalfOpen) {
    if (!healthy) {
      consecutive_failures_ = 0;
      opened_at_ = now;
      transition(now, BreakerState::kOpen, "probe batch unhealthy");
      return;
    }
    if (++probe_successes_ >= cfg_.close_after) {
      consecutive_failures_ = 0;
      transition(now, BreakerState::kClosed, "probe batches healthy");
    }
    return;
  }
  // kOpen: batches admitted before the trip may still complete; they say
  // nothing about recovery, so they do not move the state.
}

void CircuitBreaker::reset(Tick now, const std::string& why) {
  if (state_ != BreakerState::kClosed) {
    transition(now, BreakerState::kClosed, why);
  }
  consecutive_failures_ = 0;
  probes_admitted_ = 0;
  probe_successes_ = 0;
}

}  // namespace pt::serve
