// The serve_swap workload: serve::ServeRuntime replays a seeded Poisson
// trace while a pruned generation is dropped into the registry mid-trace
// (poll -> CRC scrub -> canary -> materialize -> lease swap). Wall-clock
// timestamps are taken by schedule() actions at fixed modeled-tick
// boundaries, so every window of the modeled clock is one timed unit.
#pragma once

#include <cstdint>
#include <string>

#include "fixtures.h"
#include "serve/server.h"

namespace perfbench {

struct ServeFixture {
  pt::models::ModelConfig model;
  std::string model_name = "resnet20";
  pt::Shape input;
  pt::serve::ServeConfig cfg;
  pt::serve::TraceSpec trace;
  std::uint64_t prune_seed = 0;
  pt::serve::Tick swap_tick = 0;
};

ServeFixture serve_fixture(std::uint64_t seed);

/// The two generations: the dense model, and the same model with a fixed,
/// seed-chosen half of every prunable channel variable zeroed and removed
/// by prune::Reconfigurer (widths independent of any training arithmetic).
struct Generations {
  pt::graph::Network dense;
  pt::graph::Network pruned;
};
Generations build_generations(const ServeFixture& f);

/// Zeroes a seed-chosen `fraction` of every prunable channel variable of
/// `net` (all adjacent conv groups), so prune::Reconfigurer removes them.
void zero_channels(pt::graph::Network& net, float fraction, std::uint64_t seed);

/// One replay of a fixture: set-up (both generations built — or cloned
/// from `given` — and written, runtime constructed) followed by the trace.
/// `with_trace` false replays an empty trace, which ends right after the
/// first publish: a set-up probe.
struct ServeRep {
  Json record = Json::object();
  double setup_s = 0;
};
ServeRep serve_rep(const ServeFixture& fixture, const std::string& run_dir,
                   bool with_trace, Generations* given);

/// Untraced workload: as many whole trace replays as `seconds` holds at
/// the nominal replay length (at least one), with `setup_probes` set-up
/// probes spread evenly between them.
Json run_serve_workload(std::uint64_t seed, double seconds,
                        const std::string& run_dir, int setup_probes);

}  // namespace perfbench
