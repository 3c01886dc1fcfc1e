// Telemetry export: fold a recorded run into a one-line benchmark summary.
//
//   $ ./telemetry_export --run /tmp/metrics --name telemetry_smoke
//         --out BENCH_telemetry_smoke.json
//
// (one command line, wrapped here).
//
// Reads <run>/epochs.jsonl (written by a trainer run with a metrics
// directory, e.g. `quickstart --metrics-out`), aggregates the cost
// trajectory (total training FLOPs, allreduce bytes, first/last per-sample
// costs, monotonicity of FLOPs and memory), and writes the summary as a
// schema-versioned BENCH_<name>.json document.
#include <iostream>

#include "telemetry/bench_export.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  pt::CliFlags flags;
  flags.define("run", "", "telemetry run directory (contains epochs.jsonl)");
  flags.define("name", "telemetry", "benchmark name recorded in the summary");
  flags.define("out", "", "output path (default: BENCH_<name>.json)");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("telemetry_export");
    return 0;
  }
  const std::string run_dir = flags.get("run");
  if (run_dir.empty()) {
    std::cerr << "telemetry_export: --run <dir> is required\n";
    return 2;
  }
  const std::string name = flags.get("name");
  std::string out = flags.get("out");
  if (out.empty()) out = "BENCH_" + name + ".json";
  try {
    pt::telemetry::bench_export(run_dir, name, out);
  } catch (const std::exception& e) {
    std::cerr << "telemetry_export: " << e.what() << "\n";
    return 1;
  }
  std::cout << "wrote " << out << "\n";
  return 0;
}
