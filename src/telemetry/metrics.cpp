#include "telemetry/metrics.h"

#include <atomic>
#include <cmath>
#include <limits>

namespace pt::telemetry {
namespace {

std::atomic<bool> g_enabled{false};

// Default buckets for histograms observed before define_histogram():
// decades from 1e-6 to 1e9 cover microsecond timings through byte totals.
std::vector<double> default_bounds() {
  std::vector<double> b;
  for (int e = -6; e <= 9; ++e) b.push_back(std::pow(10.0, e));
  return b;
}

// Stack of enclosing ScopedTimer names for the current thread; joined with
// '/' to form the hierarchical span path.
thread_local std::vector<std::string>* t_span_stack = nullptr;

std::vector<std::string>& span_stack() {
  // Leaked on thread exit by design: ScopedTimer destructors may run during
  // static destruction and must not touch a destroyed thread_local vector.
  if (t_span_stack == nullptr) t_span_stack = new std::vector<std::string>();
  return *t_span_stack;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = new MetricsRegistry();  // never destroyed
  return *reg;
}

void MetricsRegistry::counter_add(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::gauge_set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::define_histogram(const std::string& name,
                                       std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramData& h = histograms_[name];
  h.bounds = std::move(bounds);
  h.counts.assign(h.bounds.size() + 1, 0);
  h.total = 0;
  h.sum = 0;
  h.min = 0;
  h.max = 0;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    HistogramData fresh;
    fresh.bounds = default_bounds();
    fresh.counts.assign(fresh.bounds.size() + 1, 0);
    it = histograms_.emplace(name, std::move(fresh)).first;
  }
  HistogramData& h = it->second;
  std::size_t bucket = h.bounds.size();  // overflow bucket
  for (std::size_t i = 0; i < h.bounds.size(); ++i) {
    if (value <= h.bounds[i]) {
      bucket = i;
      break;
    }
  }
  ++h.counts[bucket];
  if (h.total == 0) {
    h.min = value;
    h.max = value;
  } else {
    if (value < h.min) h.min = value;
    if (value > h.max) h.max = value;
  }
  ++h.total;
  h.sum += value;
}

void MetricsRegistry::record_span(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (SpanStats* s : {&spans_[name], &span_window_[name]}) {
    if (s->count == 0) {
      s->min_seconds = seconds;
      s->max_seconds = seconds;
    } else {
      if (seconds < s->min_seconds) s->min_seconds = seconds;
      if (seconds > s->max_seconds) s->max_seconds = seconds;
    }
    ++s->count;
    s->total_seconds += seconds;
  }
}

void MetricsRegistry::event(const std::string& name,
                            const std::string& detail) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Event e;
    e.seq = next_seq_++;
    e.at_seconds = epoch_.seconds();
    e.name = name;
    e.detail = detail;
    events_.push_back(std::move(e));
  }
  // Echo outside the registry lock: util::logging has its own sink mutex
  // and a user-installed sink could legitimately read metrics back.
  log_debug("[telemetry] " + name + (detail.empty() ? "" : ": " + detail));
}

std::map<std::string, double> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::map<std::string, double> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_;
}

std::map<std::string, HistogramData> MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_;
}

std::map<std::string, SpanStats> MetricsRegistry::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<Event> MetricsRegistry::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::map<std::string, SpanStats> MetricsRegistry::take_span_window() {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanStats> window;
  window.swap(span_window_);
  return window;
}

double MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  spans_.clear();
  span_window_.clear();
  events_.clear();
  next_seq_ = 0;
  epoch_.reset();
}

ScopedTimer::ScopedTimer(std::string name) : active_(enabled()) {
  if (!active_) return;
  span_stack().push_back(std::move(name));
  timer_.reset();  // exclude the push from the measured interval
}

ScopedTimer::~ScopedTimer() {
  if (!active_) return;
  const double elapsed = timer_.seconds();
  std::vector<std::string>& stack = span_stack();
  std::string path;
  for (const std::string& part : stack) {
    if (!path.empty()) path.push_back('/');
    path += part;
  }
  MetricsRegistry::global().record_span(path, elapsed);
  stack.pop_back();
}

void count(const std::string& name, double delta) {
  if (enabled()) MetricsRegistry::global().counter_add(name, delta);
}

void gauge(const std::string& name, double value) {
  if (enabled()) MetricsRegistry::global().gauge_set(name, value);
}

void observe(const std::string& name, double value) {
  if (enabled()) MetricsRegistry::global().observe(name, value);
}

void span(const std::string& name, double seconds) {
  if (enabled()) MetricsRegistry::global().record_span(name, seconds);
}

void event(const std::string& name, const std::string& detail) {
  if (enabled()) MetricsRegistry::global().event(name, detail);
}

}  // namespace pt::telemetry
