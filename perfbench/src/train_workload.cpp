#include "train_workload.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "cost/device.h"
#include "robust/integrity.h"
#include "timed_strategy.h"

namespace perfbench {
namespace fs = std::filesystem;

namespace {

/// Wall seconds of one training run of either workload on a 4-core x86
/// VM; sets how many runs one measuring window holds.
constexpr double kNominalTrainRunSeconds = 15.0;

/// Optimizer steps of a probe run. The first ends set-up; the intervals
/// between the others are phase samples taken at the probe's moment, so
/// the phase timings see the machine all through the window and not only
/// during the few seconds of each timed run's dense or pruned phase.
constexpr std::int64_t kProbeSteps = 4;

/// Fresh scratch directories for the fixture's checkpoints and telemetry.
void reset_run_dirs(const TrainFixture& f) {
  for (const std::string& dir : {f.cfg.checkpoint_dir, f.cfg.metrics_dir}) {
    if (dir.empty()) continue;
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
}

Json numbers(const std::vector<double>& v, double origin) {
  Json out = Json::array();
  for (double x : v) out.push_back(Json(x - origin));
  return out;
}

}  // namespace

TrainRep run_train_rep(const TrainFixture& fixture, bool timed) {
  TrainFixture f = fixture;
  if (!timed) f.cfg.strategy = "group_lasso";
  reset_run_dirs(f);
  StepLog log;
  set_step_log(timed ? &log : nullptr);

  const double t0 = now_s();
  pt::data::SyntheticImageDataset dataset(f.data);
  pt::graph::Network net = build_model(f);
  TrainRep rep{Json::object(), clone(net), pt::graph::Network(), 0};
  pt::core::PruneTrainer trainer(net, dataset, f.cfg);
  const pt::core::TrainResult result = trainer.run();
  const double t_end = now_s();
  set_step_log(nullptr);

  const pt::Shape input = f.input();
  pt::cost::DeviceModel device(f.cfg.device);
  Json& r = rep.record;
  r["step_t"] = numbers(log.t, t0);
  Json epochs_of_steps = Json::array();
  for (std::int64_t e : log.epoch) epochs_of_steps.push_back(Json(e));
  r["step_epoch"] = std::move(epochs_of_steps);
  r["end_t"] = Json(t_end - t0);
  r["batch"] = Json(f.cfg.batch_size);
  r["initial_flops_train"] = Json(training_flops(rep.initial, input));
  r["final_flops_train"] = Json(training_flops(net, input));
  r["initial_channels"] = Json(channels_alive(rep.initial));
  r["final_channels"] = Json(result.final_channels);
  r["final_widths"] = conv_widths(net);
  r["final_test_acc"] = Json(result.final_test_acc);
  r["lambda"] = Json(static_cast<double>(result.lambda));
  r["modeled_dense_step_ms"] =
      Json(1e3 * device.training_time(rep.initial, input, f.cfg.batch_size));
  r["modeled_pruned_step_ms"] =
      Json(1e3 * device.training_time(net, input, f.cfg.batch_size));
  Json epochs = Json::array();
  for (const pt::core::EpochStats& s : result.epochs) {
    Json e = Json::object();
    e["epoch"] = Json(s.epoch);
    e["train_loss"] = Json(s.train_loss);
    e["channels"] = Json(s.channels_alive);
    e["reconfigured"] = Json(s.reconfigured);
    epochs.push_back(std::move(e));
  }
  r["epochs"] = std::move(epochs);
  const pt::robust::RecoveryReport& report = trainer.recovery_report();
  Json events = Json::array();
  for (const pt::robust::HealthEvent& ev : report.events) {
    events.push_back(Json(ev.describe()));
  }
  r["health_events"] = std::move(events);
  r["rollbacks"] = Json(report.rollbacks);
  // Steps replayed after a rollback were discarded work.
  r["steps_discarded"] = Json(std::int64_t{0});
  if (report.rollbacks > 0) {
    const std::int64_t planned =
        f.cfg.epochs * (f.data.train_samples / f.cfg.batch_size);
    r["steps_discarded"] =
        Json(static_cast<std::int64_t>(log.t.size()) - planned);
  }
  rep.digest = pt::robust::compute_state_digest(net, trainer.exec_context()).state;
  rep.final_net = std::move(net);
  return rep;
}

ProbeRun probe_run(const TrainFixture& fixture, pt::graph::Network* start) {
  reset_run_dirs(fixture);
  StepLog log;
  log.stop_after_steps = kProbeSteps;
  set_step_log(&log);
  const double t0 = now_s();
  try {
    pt::data::SyntheticImageDataset dataset(fixture.data);
    pt::graph::Network net =
        start != nullptr ? clone(*start) : build_model(fixture);
    pt::core::PruneTrainer trainer(net, dataset, fixture.cfg);
    trainer.run();
  } catch (const StopRun&) {
  }
  set_step_log(nullptr);
  if (static_cast<std::int64_t>(log.t.size()) != kProbeSteps) {
    throw std::runtime_error("probe run ended before its last step");
  }
  ProbeRun probe;
  probe.setup_s = log.t.front() - t0;
  for (std::size_t i = 1; i < log.t.size(); ++i) {
    probe.step_s.push_back(log.t[i] - log.t[i - 1]);
  }
  return probe;
}

Json run_train_workload(const std::string& workload, std::uint64_t seed,
                        double seconds, const std::string& run_dir,
                        int setup_probes) {
  const TrainFixture f = train_fixture(workload, TrainKnobs{}, run_dir);
  Json out = Json::object();
  out["workload"] = Json(workload);
  // The training fixture is pinned (fixtures.cpp); the seed is recorded only.
  out["seed"] = Json(static_cast<std::int64_t>(seed));
  Json probes = Json::array(), dense_steps = Json::array(),
       pruned_steps = Json::array();
  // Whole runs only, as many as fill `seconds` at the nominal run length:
  // a fixed amount of work per --seconds, whatever the machine's speed.
  const long runs = std::max(1L, std::lround(seconds / kNominalTrainRunSeconds));
  // Probe runs follow each timed run, so that every dense probe has a
  // pruned one, started from the first timed run's final network, at
  // nearly the same moment of the machine.
  pt::graph::Network final_net;
  for (long slot = 0; slot < runs; ++slot) {
    TrainRep rep = run_train_rep(f, true);
    rep.record["digest"] = Json(static_cast<std::int64_t>(rep.digest));
    append_rep(run_dir, rep.record);
    if (slot == 0) {
      out["peak_rss_mb"] = Json(peak_rss_mb());
      final_net = std::move(rep.final_net);
    }
    for (int i = probes_in_slot(setup_probes, runs - 1, slot); i > 0; --i) {
      const ProbeRun dense = probe_run(f, nullptr);
      probes.push_back(Json(dense.setup_s));
      for (double s : dense.step_s) dense_steps.push_back(Json(s));
      for (double s : probe_run(f, &final_net).step_s) {
        pruned_steps.push_back(Json(s));
      }
    }
  }
  out["setup_probes"] = std::move(probes);
  out["probe_dense_steps"] = std::move(dense_steps);
  out["probe_pruned_steps"] = std::move(pruned_steps);
  return out;
}

}  // namespace perfbench
