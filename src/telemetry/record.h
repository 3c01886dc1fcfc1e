// Per-epoch run records (ISSUE 3 tentpole, part 2).
//
// A run directory holds two files, both written crash-safely through
// util::fileio:
//
//   manifest.json  — one self-describing object per run: schema version,
//                    run name, creation time, git describe, seed, and the
//                    caller-provided config dump. Written once, before the
//                    first epoch (write-temp-fsync-rename, the same
//                    discipline src/ckpt uses).
//   epochs.jsonl   — one JSON object per line per epoch, appended with
//                    an fsync after each epoch. Every line carries
//                    `schema`/`schema_version`, the trainer's EpochStats
//                    (telemetry/epoch_stats.h), the reconfiguration
//                    outcome, per-layer FLOPs and measured wall-time (from
//                    graph::NodeProfile), per-layer sparsity densities, a
//                    snapshot of the cumulative telemetry counters/gauges,
//                    and the spans closed since the previous record (the
//                    epoch's own train/epoch and train/checkpoint).
//
// Records round-trip: from_json(to_json(r)) == r field-for-field, and
// RunRecorder::read_records() re-reads a directory a previous process
// wrote (the bench_export path).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/network.h"
#include "prune/reconfigure.h"
#include "telemetry/epoch_stats.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace pt::telemetry {

inline constexpr const char* kEpochSchema = "pt-telemetry-epoch";
inline constexpr const char* kManifestSchema = "pt-telemetry-manifest";
inline constexpr int kSchemaVersion = 1;

/// Analytical + measured cost of one layer for one epoch: FLOPs per sample
/// from cost::FlopsModel, wall-time and call counts from the network's
/// execution profile. Node ids are stable across reconfigurations.
struct LayerRecord {
  int node = -1;
  std::string name;
  std::string type;
  double fwd_flops = 0;      ///< inference FLOPs per sample (analytical)
  double bwd_flops = 0;      ///< additional backward FLOPs per sample
  double fwd_seconds = 0;    ///< measured forward wall-time this epoch
  double bwd_seconds = 0;    ///< measured backward wall-time this epoch
  std::uint64_t fwd_calls = 0;
  std::uint64_t bwd_calls = 0;
};

/// prune::LayerDensity mirror (Fig. 12 data, per epoch).
struct SparsityRecord {
  std::string name;
  double channel_density = 1.0;
  double weight_density = 1.0;
};

/// A reconfiguration's prune::ReconfigStats plus whether one ran this epoch.
struct ReconfigRecord : prune::ReconfigStats {
  bool happened = false;
};

/// One epochs.jsonl line: the epoch's stats (written under their
/// for_each_field names) and what telemetry adds to them.
struct EpochRecord : EpochStats {
  // Which prune::Strategy produced the epoch ("" in records written before
  // the strategy field existed).
  std::string strategy;

  ReconfigRecord reconfig;
  std::vector<LayerRecord> layers;
  std::vector<SparsityRecord> sparsity;

  // Cumulative telemetry counters and gauges at the end of the epoch, and
  // the spans closed since the previous record (a span window).
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, SpanStats> spans;

  Json to_json() const;
  static EpochRecord from_json(const Json& j);
};

/// Merges a fresh cost::FlopsModel of `net` (at per-sample `input` shape)
/// with the network's accumulated execution profile, by node id. Calling
/// this after a reconfiguration reports the *current* (smaller) model's
/// analytical FLOPs — the per-layer analytical-vs-measured test and the
/// monotonicity acceptance check build on this.
std::vector<LayerRecord> collect_layer_records(graph::Network& net,
                                               const Shape& input);

/// Everything manifest.json records about a run.
struct RunManifest {
  std::string run_name;
  std::string git;           ///< `git describe` output, "" when unavailable
  std::int64_t created_unix = 0;
  std::uint64_t seed = 0;
  Json config = Json::object();  ///< caller-provided config dump

  Json to_json() const;
  static RunManifest from_json(const Json& j);
};

/// Best-effort `git describe --always --dirty` of the current directory;
/// returns "" when git or the repository is unavailable.
std::string git_describe();

/// Writes manifest.json on construction and appends one epochs.jsonl line
/// per append(). The directory is created when missing.
class RunRecorder {
 public:
  RunRecorder(std::string dir, const RunManifest& manifest);

  void append(const EpochRecord& record);

  const std::string& dir() const { return dir_; }

  /// Parses every complete line of `<dir>/epochs.jsonl`; returns {} when
  /// the file does not exist yet. An unterminated final line (a torn
  /// append) is skipped; a malformed complete line throws
  /// std::runtime_error.
  static std::vector<EpochRecord> read_records(const std::string& dir);
  /// Parses `<dir>/manifest.json`.
  static RunManifest read_manifest(const std::string& dir);

 private:
  std::string dir_;
};

}  // namespace pt::telemetry
