// Telemetry core: a process-wide metrics registry plus RAII scoped tracing
// (ISSUE 3 tentpole, part 1).
//
// Metric taxonomy (see DESIGN.md §8):
//  - counters:   monotonically increasing doubles ("dist/allreduce_bytes");
//  - gauges:     last-written value ("prune/channels_alive");
//  - histograms: fixed-bucket distributions of observed values;
//  - spans:      accumulated wall-time statistics per hierarchical span
//                name ("train/epoch/forward"), fed by ScopedTimer;
//  - events:     timestamped structured occurrences (reconfigurations,
//                guardian health events, rollbacks), echoed through
//                util::logging at debug level.
//
// Cost discipline: everything is gated on a single process-wide atomic
// flag. When telemetry is disabled (the default) every helper is one
// relaxed atomic load and a branch — no locks, no clock reads, no string
// work — so instrumented hot paths (per-layer forward/backward, the
// cluster step) stay at production speed. When enabled, the registry is a
// single mutex-guarded store, safe against concurrent writers (simulated
// dist replicas, exec pool workers).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/logging.h"

namespace pt::telemetry {

/// Process-wide telemetry switch; off by default.
bool enabled();
void set_enabled(bool on);

/// One fixed-bucket histogram. `bounds` are inclusive upper edges of the
/// first `bounds.size()` buckets; `counts` has one extra overflow bucket.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries
  std::uint64_t total = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
};

/// Accumulated wall-time of one span name.
struct SpanStats {
  std::uint64_t count = 0;
  double total_seconds = 0;
  double min_seconds = 0;
  double max_seconds = 0;
};

/// One structured telemetry event.
struct Event {
  std::int64_t seq = 0;       ///< monotone per-registry sequence number
  double at_seconds = 0;      ///< seconds since registry creation
  std::string name;           ///< taxonomy path, e.g. "health/loss-spike"
  std::string detail;         ///< human-readable context
};

class MetricsRegistry {
 public:
  MetricsRegistry();

  /// The process-wide registry every instrumented subsystem writes to.
  static MetricsRegistry& global();

  void counter_add(const std::string& name, double delta = 1.0);
  void gauge_set(const std::string& name, double value);

  /// Declares a histogram with explicit bucket bounds (sorted ascending).
  /// Observing an undeclared name creates it with default decade buckets.
  void define_histogram(const std::string& name, std::vector<double> bounds);
  void observe(const std::string& name, double value);

  /// Accumulates `seconds` into span `name` (ScopedTimer's sink).
  void record_span(const std::string& name, double seconds);

  /// Records a structured event and echoes "<name>: <detail>" through
  /// util::logging at debug level (never raw stderr).
  void event(const std::string& name, const std::string& detail = "");

  // Point-in-time copies (thread-safe).
  std::map<std::string, double> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, HistogramData> histograms() const;
  std::map<std::string, SpanStats> spans() const;
  std::vector<Event> events() const;

  /// The spans recorded since the previous call (or reset()), with their
  /// own count, total, min and max; starts a new window. spans() stays
  /// cumulative. Per-epoch run records are these windows.
  std::map<std::string, SpanStats> take_span_window();

  double counter(const std::string& name) const;  ///< 0 when absent
  double gauge(const std::string& name) const;    ///< 0 when absent

  /// Clears every metric, span, and event (tests, run boundaries).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramData> histograms_;
  std::map<std::string, SpanStats> spans_;
  std::map<std::string, SpanStats> span_window_;  ///< since the last take
  std::vector<Event> events_;
  std::int64_t next_seq_ = 0;
  Timer epoch_;  ///< event timestamps are relative to registry creation
};

/// RAII span timer with hierarchical naming: nested ScopedTimers join
/// their names with '/', so
///   ScopedTimer a("train"); { ScopedTimer b("epoch"); }
/// records span "train/epoch". When telemetry is disabled construction is
/// a no-op (one atomic load); destruction records nothing.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  bool active_;
  Timer timer_;
};

// Enabled-gated convenience forwarders to MetricsRegistry::global(); one
// call site per instrumentation point keeps the hot paths readable.
void count(const std::string& name, double delta = 1.0);
void gauge(const std::string& name, double value);
void observe(const std::string& name, double value);
void span(const std::string& name, double seconds);
void event(const std::string& name, const std::string& detail = "");

}  // namespace pt::telemetry
