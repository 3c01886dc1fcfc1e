// The two training workloads, train_prune and train_elastic: repeated
// PruneTrainer runs with per-step wall-clock timestamps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fixtures.h"

namespace perfbench {

/// One complete PruneTrainer::run() of a fixture.
struct TrainRep {
  Json record;                   ///< raw timings + outcome (see .cpp)
  pt::graph::Network initial;    ///< the network before training
  pt::graph::Network final_net;  ///< the trained, reconfigured network
  std::uint32_t digest = 0;      ///< CRC of the final named state
};

/// Runs the fixture once. `timed` selects the step-timestamping strategy;
/// false runs the plain "group_lasso" strategy (the bitwise reference).
TrainRep run_train_rep(const TrainFixture& fixture, bool timed);

/// A PruneTrainer::run() of a fixture stopped after its first few steps.
struct ProbeRun {
  double setup_s = 0;           ///< run start to the end of its first step
  std::vector<double> step_s;   ///< intervals between the later steps
};

/// Runs the fixture from a fresh model (`start` null: set-up probe and
/// dense-phase steps) or from a copy of `start` (a final architecture:
/// pruned-phase steps). Set-up covers data synthesis, model build or copy,
/// trainer construction, the lambda probe and the first step.
ProbeRun probe_run(const TrainFixture& fixture, pt::graph::Network* start);

/// The untraced workload: as many whole runs as `seconds` holds at the
/// nominal run length (at least one), with `setup_probes` probe runs
/// spread evenly after them, each followed by one started from the first
/// timed run's final network. Returns the raw record perfbench/run.py
/// reduces to metrics.
Json run_train_workload(const std::string& workload, std::uint64_t seed,
                        double seconds, const std::string& run_dir,
                        int setup_probes);

}  // namespace perfbench
