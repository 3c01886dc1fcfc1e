// Quickstart: train a ResNet with PruneTrain and watch the model shrink.
//
//   $ ./quickstart [--epochs N] [--checkpoint-dir D] [--resume F]
//
// Builds a CIFAR-style ResNet-20 on the synthetic CIFAR-10 stand-in,
// trains it with group-lasso regularization from iteration 0, and
// reconfigures the network every few epochs. Prints the per-epoch model
// size, cost, and accuracy, then the final summary against the dense
// starting point.
//
// With --checkpoint-dir the trainer writes a crash-safe checkpoint
// (reconfigured model + full training context) after every epoch; after an
// interruption, --resume <dir>/ckpt-latest.bin continues the run exactly
// where it stopped.
//
// --max-rollbacks N arms the training guardian: numerical-health checks
// after every epoch, automatic rollback to the last good checkpoint (with
// an LR cut) on a fatal event, graceful abort with a diagnostic checkpoint
// once the budget is spent. --fault-spec injects deterministic faults to
// watch it work, e.g. (here and below, an indented line continues the
// command above it):
//
//   $ ./quickstart --checkpoint-dir /tmp/pt --max-rollbacks 2
//         --fault-spec "nan-grad:epoch=7"
//
// --metrics-out <dir> records the run as telemetry: <dir>/manifest.json
// plus one JSONL line per epoch in <dir>/epochs.jsonl (per-layer FLOPs and
// wall-times, sparsity densities, reconfiguration events, counters/spans).
// --no-telemetry forces the telemetry switch off, for overhead A/B runs.
//
// --threads N runs the training hot path on an N-thread execution context
// (0 = all hardware threads). The pool is deterministic: the numbers are
// bitwise-identical at every thread count (see DESIGN.md §9).
//
// --replicas N trains on a simulated elastic data-parallel cluster
// (DESIGN.md §10): batches shard over the live replicas, membership faults
// (kill-replica / flaky-replica / rejoin-replica) exercise permanent
// failure, quorum loss, and fenced rejoin. --min-live-fraction,
// --suspect-threshold, and --no-rejoin tune the membership policy:
//
//   $ ./quickstart --replicas 4 --checkpoint-dir /tmp/pt
//         --fault-spec "kill-replica:replica=2,step=50"
//
// `--fault-spec help` prints the full fault grammar table.
//
// --sdc-check-interval K arms the integrity monitor (DESIGN.md §12): every
// K optimizer steps each replica digests its state dict (CRC per tensor)
// and the cluster majority-votes; a convicted minority replica is healed
// in place by a fenced state copy — no rollback, no lost steps.
// --keep-checkpoints K retains the last K numbered checkpoint generations
// (0 = all) and a background scrubber re-validates their CRCs so rollback
// can cascade past a torn newest file:
//
//   $ ./quickstart --replicas 3 --checkpoint-dir /tmp/pt
//         --sdc-check-interval 4 --keep-checkpoints 3
//         --fault-spec "sdc-param:replica=1,step=3"
//
// --strategy <name> swaps the sparsifier (group_lasso, dst, channel_prop
// — see DESIGN.md §11); the repeatable --strategy-param k=v
// tunes it (group_lasso starts from ratio=0.25, boost=150), e.g.:
//
//   $ ./quickstart --strategy-param ratio=0.3
//   $ ./quickstart --strategy dst --strategy-param threshold_lr=0.05
//         --strategy-param beta=10
//
// `--strategy help` prints the registry table of strategies and knobs.
//
// --codec <name> swaps the gradient wire format of the simulated
// allreduce (dense, twobit, live_channel — see DESIGN.md §14); the
// repeatable --codec-param k=v tunes it, e.g.:
//
//   $ ./quickstart --replicas 4 --codec twobit
//         --codec-param threshold_scale=1.5
//
// `--codec help` prints the registry table of codecs and knobs.
#include <iostream>
#include <memory>
#include <stdexcept>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "dist/codec.h"
#include "models/builders.h"
#include "prune/strategy.h"
#include "robust/fault.h"
#include "telemetry/metrics.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  pt::CliFlags flags;
  flags.define("epochs", "36", "training epochs");
  flags.define("checkpoint-dir", "",
               "write crash-safe per-epoch checkpoints into this directory");
  flags.define("resume", "", "resume from a checkpoint file (e.g. "
               "<dir>/ckpt-latest.bin)");
  flags.define("max-rollbacks", "0",
               "rollback-to-checkpoint budget on fatal health events "
               "(requires --checkpoint-dir)");
  flags.define("fault-spec", "",
               "inject deterministic faults, e.g. 'nan-grad:epoch=7' or "
               "'kill-replica:replica=2,step=50'; 'help' prints the grammar");
  flags.define("strategy", "group_lasso",
               "sparsification strategy (group_lasso, dst, channel_prop); "
               "'help' prints the registry table");
  flags.define_list("strategy-param",
                    "strategy parameter as key=value, e.g. "
                    "--strategy-param ratio=0.3 (see --strategy help)");
  flags.define("codec", "dense",
               "gradient wire format for the simulated allreduce (dense, "
               "twobit, live_channel; needs --replicas > 1); 'help' prints "
               "the registry table");
  flags.define_list("codec-param",
                    "codec parameter as key=value, e.g. "
                    "--codec-param threshold_scale=1.5 (see --codec help)");
  flags.define("replicas", "1",
               "simulated elastic data-parallel replicas (>1 shards every "
               "batch over the live membership; see DESIGN.md section 10)");
  flags.define("min-live-fraction", "0.5",
               "quorum: abort when live replicas fall below "
               "ceil(fraction * replicas)");
  flags.define("suspect-threshold", "3",
               "consecutive missed step-acks before a replica is declared "
               "dead (detection bookkeeping; participation stops at the "
               "first miss)");
  flags.define("no-rejoin", "false",
               "treat replica death as terminal (a rejoin-replica fault "
               "is then rejected)");
  flags.define("sdc-check-interval", "0",
               "digest-vote the replica state dicts every K optimizer "
               "steps and heal convicted minorities in place (0 = off; "
               "see DESIGN.md section 12)");
  flags.define("keep-checkpoints", "0",
               "retain the last K numbered checkpoint generations and "
               "CRC-scrub them after every save (0 = retain all)");
  flags.define("threads", "1",
               "execution threads for the training hot path (0 = all "
               "hardware threads); results are bitwise-identical at any "
               "setting");
  flags.define("metrics-out", "",
               "record telemetry into this directory (manifest.json + "
               "epochs.jsonl, one line per epoch)");
  flags.define("no-telemetry", "false",
               "force the telemetry switch off (ignores --metrics-out)");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("quickstart");
    return 0;
  }
  if (flags.get("fault-spec") == "help") {
    std::cout << pt::robust::fault_spec_help();
    return 0;
  }
  if (flags.get("strategy") == "help") {
    std::cout << pt::prune::StrategyRegistry::global().help();
    return 0;
  }
  if (flags.get("codec") == "help") {
    std::cout << pt::dist::CodecRegistry::global().help();
    return 0;
  }
  const std::int64_t epochs = flags.get_int("epochs");

  // 1. A synthetic CIFAR-10 stand-in (class templates + noise + shifts).
  pt::data::SyntheticImageDataset dataset(
      pt::data::SyntheticSpec::cifar10_like());

  // 2. A width-scaled ResNet-20 matching the dataset geometry.
  pt::models::ModelConfig model_cfg;
  model_cfg.image_h = dataset.spec().height;
  model_cfg.image_w = dataset.spec().width;
  model_cfg.classes = dataset.spec().classes;
  model_cfg.width_mult = 0.5f;
  auto net = pt::models::build_resnet_basic(20, model_cfg);

  // 3. PruneTrain: lasso from iteration 0 (lambda set by Eq. 3), periodic
  //    prune + reconfigure, LR decays at 50%/75% of the run.
  pt::core::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 64;
  cfg.base_lr = 0.1f;
  cfg.lr_milestones = {epochs / 2, 3 * epochs / 4};
  cfg.policy = pt::core::PrunePolicy::kPruneTrain;
  cfg.strategy = flags.get("strategy");
  if (cfg.strategy == "group_lasso") {
    // Eq. 3 ratio 0.25 and the proxy-scale time compression (see
    // DESIGN.md); --strategy-param overrides either.
    cfg.strategy_params = {{"ratio", "0.25"}, {"boost", "150"}};
  }
  for (const std::string& kv : flags.get_list("strategy-param")) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::cerr << "--strategy-param expects key=value (got '" << kv << "')\n";
      return 1;
    }
    cfg.strategy_params[kv.substr(0, eq)] = kv.substr(eq + 1);
  }
  cfg.codec = flags.get("codec");
  for (const std::string& kv : flags.get_list("codec-param")) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::cerr << "--codec-param expects key=value (got '" << kv << "')\n";
      return 1;
    }
    cfg.codec_params[kv.substr(0, eq)] = kv.substr(eq + 1);
  }
  cfg.reconfig_interval = std::max<std::int64_t>(2, epochs / 6);
  cfg.eval_interval = 4;
  cfg.checkpoint_dir = flags.get("checkpoint-dir");
  cfg.resume_from = flags.get("resume");
  cfg.recovery.max_rollbacks = flags.get_int("max-rollbacks");
  cfg.fault_spec = flags.get("fault-spec");
  cfg.num_threads = flags.get_int("threads");
  cfg.replicas = flags.get_int("replicas");
  cfg.membership.min_live_fraction = flags.get_double("min-live-fraction");
  cfg.membership.suspect_threshold = flags.get_int("suspect-threshold");
  cfg.sdc_check_interval = flags.get_int("sdc-check-interval");
  cfg.keep_checkpoints = flags.get_int("keep-checkpoints");
  cfg.membership.allow_rejoin = !flags.get_bool("no-rejoin");
  if (flags.get_bool("no-telemetry")) {
    pt::telemetry::set_enabled(false);
  } else {
    cfg.metrics_dir = flags.get("metrics-out");
    cfg.run_name = "quickstart";
  }

  std::unique_ptr<pt::core::PruneTrainer> trainer;
  try {
    trainer = std::make_unique<pt::core::PruneTrainer>(net, dataset, cfg);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n(see --strategy help / --codec help)\n";
    return 1;
  }
  pt::core::TrainResult result;
  try {
    result = trainer->run();
  } catch (const pt::robust::TrainingAborted& e) {
    const auto& report = e.report();
    std::cerr << "training aborted by the guardian: " << e.what() << "\n"
              << "  rollbacks: " << report.rollbacks
              << ", faults injected: " << report.faults_injected
              << ", events: " << report.events.size() << "\n"
              << "  diagnostic checkpoint: " << cfg.checkpoint_dir
              << "/ckpt-diagnostic.bin\n";
    return 1;
  }

  pt::Table t({"epoch", "channels", "train FLOPs/sample", "memory MB",
               "batch", "test acc"});
  for (std::size_t e = 0; e < result.epochs.size(); e += 4) {
    const auto& es = result.epochs[e];
    t.add_row({std::to_string(es.epoch), std::to_string(es.channels_alive),
               pt::fmt(es.flops_per_sample_train / 1e6, 2) + "M",
               pt::fmt(es.memory_bytes / 1e6, 1), std::to_string(es.batch_size),
               pt::fmt(es.test_acc, 3)});
  }
  t.print();

  const auto& first = result.epochs.front();
  std::cout << "\nSummary (lambda = " << result.lambda << "):\n"
            << "  training FLOPs vs dense-equivalent: "
            << pt::fmt(100.0 * result.total_train_flops /
                           (first.flops_per_sample_train *
                            double(dataset.train_size()) * double(epochs)),
                       1)
            << "%\n"
            << "  inference FLOPs kept: "
            << pt::fmt(100.0 * result.final_inference_flops /
                           first.flops_per_sample_inf,
                       1)
            << "%\n"
            << "  conv layers removed: " << result.layers_removed << "\n"
            << "  final test accuracy: " << pt::fmt(result.final_test_acc, 3)
            << "\n";
  const auto& report = trainer->recovery_report();
  if (report.faults_injected > 0 || report.rollbacks > 0 ||
      !report.events.empty()) {
    std::cout << "  guardian: " << report.faults_injected
              << " fault(s) injected, " << report.rollbacks
              << " rollback(s), " << report.events.size()
              << " health event(s)\n";
  }
  return 0;
}
