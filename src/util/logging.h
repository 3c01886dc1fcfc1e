// Lightweight leveled logging with a wall-clock timer.
//
// Benchmarks and examples narrate long-running training loops through this;
// quiet by default in tests (level defaults to kInfo, tests may lower it).
//
// The sink is a single mutex-guarded writer: each log line is formatted
// into one buffer and emitted under the lock, so concurrent callers (e.g.
// simulated dist::ElasticCluster replicas, exec pool workers, telemetry
// event echo) never interleave characters within a line.
#pragma once

#include <chrono>
#include <functional>
#include <string>

namespace pt {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level that is actually printed.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Prints `[level ts] msg` to the sink when `level >= log_level()`.
void log(LogLevel level, const std::string& msg);

/// Redirects fully formatted log lines (no trailing newline) to `sink`
/// instead of stderr; pass nullptr to restore stderr. The sink is invoked
/// under the same mutex that serializes normal logging. Used by tests and
/// by tools that capture the run narration.
void set_log_sink(std::function<void(const std::string& line)> sink);

inline void log_debug(const std::string& msg) { log(LogLevel::kDebug, msg); }
inline void log_info(const std::string& msg) { log(LogLevel::kInfo, msg); }
inline void log_warn(const std::string& msg) { log(LogLevel::kWarn, msg); }
inline void log_error(const std::string& msg) { log(LogLevel::kError, msg); }

/// Monotonic stopwatch; `seconds()` since construction or last `reset()`.
class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace pt
