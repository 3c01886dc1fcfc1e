// Workload fixtures of the outside-in benchmark: dataset, model and
// training configuration of the training workloads, each stream derived
// from one seed.
//
// Every fixture is built only from the library's public entry points
// (data::SyntheticImageDataset, models::build_by_name, core::TrainConfig,
// serve::synthesize_trace ...), so a change under src/ shows up here
// exactly as a user of the library would see it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "graph/network.h"
#include "models/builders.h"
#include "telemetry/json.h"

namespace perfbench {

using pt::telemetry::Json;

/// Monotonic wall clock in seconds (steady_clock; arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Derives an independent 64-bit stream seed from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Appends one timed run's raw record to <run_dir>/reps.jsonl as a line of
/// its own, so records do not pile up in the measured process's memory
/// (peak_rss_mb). perfbench/run.py reads them back.
void append_rep(const std::string& run_dir, const Json& record);

/// Peak resident set size of this process so far, in MB (VmHWM of
/// /proc/self/status; NaN where it cannot be read). Serving reads it after
/// its last replay; training after its first timed run, before the probe
/// runs that follow it raise the peak (they doubled it on train_prune).
double peak_rss_mb();

/// Probes in slot `slot` when `probes` probes are shared evenly by the
/// runs + 1 slots between and around `runs` timed runs, so that they see
/// the machine at every point of a workload, not only at its start.
int probes_in_slot(int probes, long runs, long slot);

/// Sizes of a training workload. train_prune and train_elastic use the
/// defaults; the serving trace shortens them for its epoch-boundary run.
struct TrainKnobs {
  std::int64_t epochs = 12;
  std::int64_t train_samples = 512;
  std::int64_t test_samples = 256;
};

/// One training workload: dataset spec, model config and trainer config.
struct TrainFixture {
  pt::data::SyntheticSpec data;
  pt::models::ModelConfig model;
  std::string model_name = "resnet20";
  pt::core::TrainConfig cfg;
  pt::Shape input() const { return {data.channels, data.height, data.width}; }
};

/// `workload` is "train_prune" or "train_elastic"; `run_dir` is a scratch
/// directory (checkpoints and telemetry of train_elastic land under it).
TrainFixture train_fixture(const std::string& workload,
                           const TrainKnobs& knobs, const std::string& run_dir);

pt::graph::Network build_model(const TrainFixture& f);

/// Deep copy through the checkpoint capture/restore path.
pt::graph::Network clone(pt::graph::Network& net);

/// Sum of conv output channels (the paper's "channels alive").
std::int64_t channels_alive(pt::graph::Network& net);

/// cost::FlopsModel training / inference FLOPs per sample.
double training_flops(pt::graph::Network& net, const pt::Shape& input);
double inference_flops(pt::graph::Network& net, const pt::Shape& input);

/// Output channels of every live conv, in node order (architecture
/// fingerprint printed with the results).
Json conv_widths(pt::graph::Network& net);

}  // namespace perfbench
