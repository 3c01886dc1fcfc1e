// A delegating prune::Strategy that timestamps optimizer steps from inside
// PruneTrainer::run() without touching the trainer.
//
// Registered as "perfbench_group_lasso": every hook forwards to the
// built-in "group_lasso" strategy with the same parameters, and
// post_step_update (called exactly once per optimizer step, single device
// and elastic alike) appends a wall-clock timestamp to the active StepLog.
// The benchmark checks that a run under this strategy is bitwise identical
// to the same run under "group_lasso" (see train_workload.cpp).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Thrown out of post_step_update once `stop_after_steps` steps were
/// logged; set-up probes use it to stop a run right after its first step.
struct StopRun : std::runtime_error {
  StopRun() : std::runtime_error("perfbench: run stopped by the step log") {}
};

struct StepLog {
  std::vector<double> t;              ///< wall seconds at each step's end
  std::vector<std::int64_t> epoch;    ///< global epoch of each step
  std::int64_t stop_after_steps = 0;  ///< > 0: throw StopRun at this count
};

/// Registers "perfbench_group_lasso" into the global strategy registry
/// (idempotent).
void register_timed_strategy();

/// The log the next post_step_update calls append to (nullptr: none).
void set_step_log(StepLog* log);

}  // namespace perfbench
