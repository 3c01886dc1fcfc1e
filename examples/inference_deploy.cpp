// Deploying a PruneTrained model behind the serving runtime: train with
// checkpointing (generations accumulate as the model prunes), then serve a
// synthetic traffic trace through serve::ServeRuntime while the final,
// pruned generation lands mid-trace — a live hot swap with zero dropped
// requests, measured before vs after the swap.
//
// The modeled serving clock maps 1 tick = 1 ms, so --qps and --deadline-ms
// mean what they say. flops_per_tick is calibrated so one full dense batch
// costs ~8 ticks.
//
//   $ ./inference_deploy [--epochs 8] [--qps 150] [--max-batch 8]
//                        [--deadline-ms 60] [--workers 2]
//                        [--duration-ms 4000] [--fault-spec <spec>]
//                        [--canary-probes 8] [--no-canary]
//
// Besides the hot swap, the run demonstrates the serving-resilience layer
// (ISSUE 10): a quarter of the way in, a *poisoned* generation — valid
// CRC, NaN classifier head — lands in the live directory. With the canary
// gate on (default) it is rejected at the publish boundary and traffic
// never leaves the incumbent; with --no-canary it swaps in, the post-swap
// GenerationHealth guard catches the first NaN batch, and the runtime
// rolls back automatically. Either way the poisoned weights are
// quarantined and zero requests are dropped. --fault-spec feeds the
// robust::FaultInjector grammar into the runtime itself (slow-model,
// flaky-output; pass "help" for the table).
#include <algorithm>
#include <filesystem>
#include <iostream>

#include "ckpt/checkpoint.h"
#include "core/trainer.h"
#include "cost/flops.h"
#include "data/synthetic.h"
#include "models/builders.h"
#include "prune/materialize.h"
#include "robust/fault.h"
#include "serve/server.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/table.h"

namespace fs = std::filesystem;

namespace {

struct Window {
  std::int64_t served = 0;
  double p99 = 0;
  double qps = 0;
};

// Latency p99 + served throughput of the responses in [from, to) ticks.
Window window_stats(const std::vector<pt::serve::Response>& responses,
                    pt::serve::Tick from, pt::serve::Tick to) {
  Window w;
  std::vector<pt::serve::Tick> lat;
  for (const auto& r : responses) {
    if (r.shed || r.completion < from || r.completion >= to) continue;
    lat.push_back(r.completion - r.arrival);
  }
  w.served = static_cast<std::int64_t>(lat.size());
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    w.p99 = static_cast<double>(
        lat[std::min(lat.size() - 1,
                     static_cast<std::size_t>(0.99 * double(lat.size())))]);
    w.qps = 1000.0 * double(w.served) / double(std::max<pt::serve::Tick>(1, to - from));
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  pt::CliFlags flags;
  flags.define("epochs", "8", "training epochs (checkpoint every ~third)");
  flags.define("qps", "150", "offered load, requests per modeled second");
  flags.define("max-batch", "8", "dynamic batching cap");
  flags.define("deadline-ms", "60", "per-request relative deadline");
  flags.define("workers", "2", "modeled serving workers");
  flags.define("duration-ms", "4000", "trace length in modeled ms");
  flags.define("fault-spec", "",
               "serve-side fault injection spec (\"help\" prints the grammar)");
  flags.define("canary-probes", "8", "canary probe samples per publish");
  flags.define("no-canary", "false",
               "disable the canary gate (post-swap guards still roll back)");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("inference_deploy");
    return 0;
  }
  if (flags.get("fault-spec") == "help") {
    std::cout << pt::robust::fault_spec_help();
    return 0;
  }
  // Fail before training, not when the runtime comes up afterwards.
  pt::robust::validate_serving_faults(flags.get("fault-spec"));
  const std::int64_t epochs = std::max<long>(3, flags.get_int("epochs"));
  const double qps = std::max(1.0, flags.get_double("qps"));
  const std::int64_t max_batch = std::max<long>(1, flags.get_int("max-batch"));
  const pt::serve::Tick deadline = std::max<long>(1, flags.get_int("deadline-ms"));
  const int workers = static_cast<int>(std::max<long>(1, flags.get_int("workers")));
  const pt::serve::Tick duration =
      std::max<long>(100, flags.get_int("duration-ms"));

  pt::data::SyntheticImageDataset dataset(
      pt::data::SyntheticSpec::cifar10_like());
  pt::models::ModelConfig model_cfg;
  model_cfg.image_h = dataset.spec().height;
  model_cfg.image_w = dataset.spec().width;
  model_cfg.classes = dataset.spec().classes;
  model_cfg.width_mult = 0.125f;
  const pt::Shape input{dataset.spec().channels, dataset.spec().height,
                        dataset.spec().width};

  // 1. Train with PruneTrain, checkpointing into a staging directory so the
  // generation chain spans dense-ish early weights to the pruned final model.
  const fs::path root = "inference_deploy_ckpts";
  const fs::path stage = root / "stage";
  const fs::path live = root / "live";
  fs::remove_all(root);
  fs::create_directories(stage);
  fs::create_directories(live);

  auto trained = pt::models::build_resnet50(model_cfg, false);
  {
    pt::core::TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.batch_size = 64;
    cfg.base_lr = 0.1f;
    cfg.lr_milestones = {epochs / 2, 3 * epochs / 4};
    cfg.policy = pt::core::PrunePolicy::kPruneTrain;
    cfg.strategy_params["ratio"] = "0.25";
    cfg.strategy_params["boost"] = "150";
    cfg.reconfig_interval = std::max<std::int64_t>(2, epochs / 4);
    cfg.eval_interval = epochs;
    cfg.checkpoint_dir = stage.string();
    cfg.checkpoint_interval = std::max<std::int64_t>(1, epochs / 3);
    pt::core::PruneTrainer trainer(trained, dataset, cfg);
    const auto r = trainer.run();
    std::cout << "trained: test acc " << pt::fmt(r.final_test_acc, 3)
              << ", channels " << r.final_channels << ", inference MFLOPs "
              << pt::fmt(r.final_inference_flops / 1e6, 3) << "\n";
  }

  const auto generations = pt::ckpt::list_generations(stage.string());
  if (generations.size() < 2) {
    std::cerr << "need >= 2 checkpoint generations, got "
              << generations.size() << "\n";
    return 1;
  }
  const auto& first_gen = generations.front();
  const auto& last_gen = generations.back();

  // 2. Serve: the live directory starts with the earliest (least pruned)
  // generation; the final pruned generation is dropped in mid-trace and the
  // registry poll hot-swaps it under load.
  fs::copy_file(first_gen.path, live / fs::path(first_gen.path).filename());

  pt::exec::ExecContext ctx(1);
  pt::serve::ServeConfig cfg;
  cfg.workers = workers;
  cfg.max_batch = max_batch;
  cfg.max_queue = 4 * max_batch;
  cfg.poll_interval = 10;  // poll the registry every modeled 10 ms
  // Calibrate the modeled worker so one full batch of the *dense* model
  // costs ~8 ticks; the pruned model then prices proportionally cheaper.
  {
    auto dense = pt::models::build_resnet50(model_cfg, false);
    pt::cost::FlopsModel fm(dense, input);
    cfg.flops_per_tick =
        fm.inference_flops() * double(max_batch) / 8.0;
  }
  cfg.fault_spec = flags.get("fault-spec");
  cfg.canary.enabled = !flags.get_bool("no-canary");
  cfg.canary.probes = std::max<long>(1, flags.get_int("canary-probes"));
  pt::serve::ServeRuntime runtime(cfg, ctx);
  runtime.add_model("resnet", live.string(), input);

  // A poisoned generation lands a quarter of the way in: restored from the
  // first checkpoint, classifier head overwritten with NaN, re-saved with a
  // perfectly valid CRC. The canary gate (or, with --no-canary, the
  // post-swap health guard + rollback) must keep it out of every response.
  const std::int64_t poison_epoch = last_gen.epoch + 1;
  runtime.schedule(duration / 4, [&] {
    auto poisoned =
        pt::ckpt::Checkpoint::load(first_gen.path).restore_network();
    auto inj = pt::robust::FaultInjector::from_string("poison-ckpt", 0xbad);
    inj.poison_network(poisoned, poison_epoch);
    pt::ckpt::Checkpoint::capture(poisoned).save(
        (live / ("ckpt-epoch-" + std::to_string(poison_epoch) + ".bin"))
            .string());
  });

  const pt::serve::Tick swap_at = duration / 2;
  runtime.schedule(swap_at, [&] {
    fs::copy_file(last_gen.path, live / fs::path(last_gen.path).filename(),
                  fs::copy_options::overwrite_existing);
  });

  pt::serve::TraceSpec spec;
  spec.model = "resnet";
  spec.mean_interarrival = 1000.0 / qps;
  spec.start = 0;
  spec.end = duration;
  spec.deadline = deadline;
  spec.input = input;
  spec.seed = 42;
  const auto trace = pt::serve::synthesize_trace({spec});

  std::cout << "serving " << trace.size() << " requests over "
            << duration << " modeled ms (" << pt::fmt(qps, 0)
            << " qps offered, deadline " << deadline << " ms, "
            << workers << " workers, max batch " << max_batch << ")\n\n";
  const auto report = runtime.run(trace);

  // 3. Report: swap provenance, then before/after-swap service quality.
  for (const auto& ev : report.swaps) {
    std::cout << "swap @ " << ev.tick << " ms: generation "
              << ev.record.from_generation << " -> " << ev.record.to_generation
              << " (lease epoch " << ev.record.lease_epoch << ", "
              << ev.queued << " queued, " << ev.inflight
              << " batches in flight, "
              << pt::fmt(ev.record.inference_flops / 1e6, 3)
              << " MFLOPs/sample)\n";
  }

  for (const auto& q : runtime.registry().quarantined()) {
    std::cout << "quarantined generation " << q.generation << " ("
              << q.reason
              << (q.canary.detail.empty() ? "" : ": " + q.canary.detail)
              << ")\n";
  }
  for (const auto& rb : report.rollbacks) {
    std::cout << "rollback @ " << rb.tick << " ms: generation "
              << rb.from_generation << " -> " << rb.to_generation
              << " (lease epoch " << rb.lease_epoch << ", " << rb.reason
              << ")\n";
  }

  const pt::serve::Tick split =
      report.swaps.size() > 1 ? report.swaps.back().tick : swap_at;
  const Window before = window_stats(report.responses, 0, split);
  const Window after =
      window_stats(report.responses, split, report.last_completion + 1);

  pt::Table t({"window", "served", "qps", "p99 ms"});
  t.add_row({"before swap", std::to_string(before.served),
             pt::fmt(before.qps, 0), pt::fmt(before.p99, 0)});
  t.add_row({"after swap", std::to_string(after.served), pt::fmt(after.qps, 0),
             pt::fmt(after.p99, 0)});
  t.print();

  std::cout << "\nadmitted " << report.admitted << " / " << report.requests
            << " (shed " << report.shed << "), completed " << report.completed
            << ", dropped " << report.dropped << " (late " << report.late
            << "), batches " << report.batches << " (mean size "
            << pt::fmt(report.mean_batch_size, 2) << "), leases retired "
            << report.leases_retired << "\n";
  std::cout << "resilience: quarantined " << report.quarantined
            << ", rollbacks " << report.rollbacks.size()
            << ", circuit-open sheds " << report.shed_circuit_open << "\n";
  if (report.dropped != 0) {
    std::cerr << "hot swap dropped requests — zero-drop invariant violated\n";
    return 1;
  }
  // The layered invariant: with the canary on, the poisoned generation is
  // never observable at all; with --no-canary it may serve briefly, but a
  // rollback must fire and nothing formed after it may still be poisoned.
  const pt::serve::Tick rollback_tick =
      report.rollbacks.empty() ? 0 : report.rollbacks.back().tick;
  for (const auto& r : report.responses) {
    if (r.shed || r.generation != poison_epoch) continue;
    if (cfg.canary.enabled) {
      std::cerr << "poisoned generation " << poison_epoch
                << " served a response past the canary gate\n";
      return 1;
    }
    if (r.formed > rollback_tick) {
      std::cerr << "poisoned generation " << poison_epoch
                << " still serving after the rollback\n";
      return 1;
    }
  }
  if (!cfg.canary.enabled && report.rollbacks.empty()) {
    std::cerr << "canary disabled but no rollback fired\n";
    return 1;
  }
  if (report.quarantined < 1) {
    std::cerr << "poisoned generation was never quarantined\n";
    return 1;
  }
  return 0;
}
