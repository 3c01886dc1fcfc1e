// Turns a telemetry run directory (manifest.json + epochs.jsonl) into a
// BENCH_<name>.json summary in the repo's benchmark-artifact format, so an
// instrumented training run can sit next to the bench artifacts in
// run_bench_suite.sh output.
#pragma once

#include <string>

#include "telemetry/json.h"

namespace pt::telemetry {

/// Summary of one run: epoch count, first/last/total cost metrics, and the
/// PruneTrain sanity flags (FLOPs and memory monotonically non-increasing
/// across epochs — pruning only ever shrinks the model).
Json bench_summary(const std::string& run_dir, const std::string& name);

/// Writes bench_summary() to `out_path` atomically (pretty-printed via a
/// trailing newline; content is the compact deterministic dump).
void bench_export(const std::string& run_dir, const std::string& name,
                  const std::string& out_path);

/// Writes an already-built summary object to `out_path` in the same
/// BENCH_*.json artifact format (compact deterministic dump + trailing
/// newline, atomic temp+rename). For bench drivers whose summary is not an
/// epoch-record fold — e.g. bench/hotpath_scaling.cpp's thread-scaling
/// measurements.
void bench_export(const Json& summary, const std::string& out_path);

}  // namespace pt::telemetry
