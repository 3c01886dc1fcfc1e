// perfbench: the measuring half of the outside-in benchmark. It runs one
// workload and prints one JSON object of raw timestamps and outcomes on
// its last stdout line (an untraced run writes the record of each timed
// run to <run-dir>/reps.jsonl); perfbench/run.py reduces them to metrics,
// checks correctness and prints the result line.
//
//   perfbench --workload train_prune|train_elastic|serve_swap --seed N
//             --seconds S --trace 0|1 --run-dir DIR
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "serve_workload.h"
#include "timed_strategy.h"
#include "trace.h"
#include "train_workload.h"
#include "util/cli.h"
#include "util/logging.h"

namespace {

/// Set-up probes of a workload, spread over its timed runs. A training
/// probe is a pair of stopped runs that also take phase steps, several
/// times the cost of a serving probe, so training takes fewer.
constexpr int kTrainProbes = 16;
constexpr int kServeProbes = 30;

}  // namespace

int main(int argc, char** argv) {
  pt::CliFlags flags;
  flags.define("workload", "", "train_prune | train_elastic | serve_swap");
  flags.define("seed", "1",
               "workload seed (serving: weights, trace, pruned channels; "
               "training fixtures are pinned and only record it)");
  flags.define("seconds", "10", "measuring window in seconds");
  flags.define("trace", "0", "1 = traced per-layer run");
  flags.define("run-dir", ".bench_build/run", "scratch directory");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("perfbench");
    return 0;
  }
  try {
    const std::string workload = flags.get("workload");
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    const double seconds = flags.get_double("seconds");
    const bool trace = flags.get_int("trace") != 0;
    const std::string run_dir = flags.get("run-dir");
    std::filesystem::create_directories(run_dir);
    pt::set_log_level(pt::LogLevel::kError);
    perfbench::register_timed_strategy();

    perfbench::Json out;
    if (workload == "train_prune" || workload == "train_elastic") {
      out = trace ? perfbench::trace_train(workload, seed, seconds, run_dir)
                  : perfbench::run_train_workload(workload, seed, seconds,
                                                  run_dir, kTrainProbes);
    } else if (workload == "serve_swap") {
      out = trace ? perfbench::trace_serve(seed, seconds, run_dir)
                  : perfbench::run_serve_workload(seed, seconds, run_dir,
                                                  kServeProbes);
    } else {
      throw std::invalid_argument("unknown --workload '" + workload + "'");
    }
    std::cout << out.dump() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << std::endl;
    return 2;
  }
  return 0;
}
