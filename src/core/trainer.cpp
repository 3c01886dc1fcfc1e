#include "core/trainer.h"

#include <cmath>
#include <ctime>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "cost/flops.h"
#include "cost/memory.h"
#include "dist/allreduce.h"
#include "dist/codec.h"
#include "models/builders.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "optim/lr_schedule.h"
#include "optim/sgd.h"
#include "prune/reconfigure.h"
#include "prune/strategy.h"
#include "telemetry/metrics.h"
#include "util/logging.h"

namespace pt::core {

// What one training phase does, as data instead of positional booleans;
// everything else (cadence, thresholds) is the strategy's call.
struct PhaseSpec {
  std::int64_t epochs = 0;
  bool sparsify = false;          ///< strategy hooks active this phase
  bool periodic_reconfig = false; ///< periodic reconfiguration allowed
  std::int64_t one_shot_at = -1;  ///< reconfigure once after this epoch
};

namespace {

// Trainer-section (de)serialization. The section rides inside the
// checkpoint as an opaque named blob, so src/ckpt never needs to know
// these types. Writer and reader walk the same field visitor
// (PruneTrainer::for_each_section_field): each field at its own fixed
// width, flags as one byte, the epoch list as a u64 count and then every
// epoch's EpochStats fields.
struct PutField {
  ckpt::ByteWriter& w;
  template <class T>
  void operator()(const char*, const T& v) const {
    if constexpr (std::is_same_v<T, bool>) {
      w.put<std::uint8_t>(v ? 1 : 0);
    } else {
      w.put(v);
    }
  }
  void operator()(const char*, const std::vector<EpochStats>& epochs) const {
    w.put<std::uint64_t>(epochs.size());
    for (const EpochStats& s : epochs) for_each_field(s, *this);
  }
};

struct GetField {
  ckpt::ByteReader& r;
  template <class T>
  void operator()(const char*, T& v) const {
    if constexpr (std::is_same_v<T, bool>) {
      v = r.get<std::uint8_t>() != 0;
    } else {
      v = r.get<T>();
    }
  }
  void operator()(const char*, std::vector<EpochStats>& epochs) const {
    const auto n = r.get<std::uint64_t>();
    epochs.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      for_each_field(epochs.emplace_back(), *this);
    }
  }
};

// A plug-in's state as checkpoint section `kind` ("strategy" or "codec"):
// the plug-in's registry name, then its {name, f32, i64} state items.
void put_plugin_section(ckpt::Checkpoint& ck, const std::string& kind,
                        const std::string& name,
                        const std::vector<StateItem>& items) {
  ckpt::ByteWriter w;
  w.put_string(name);
  w.put<std::uint64_t>(items.size());
  for (const StateItem& item : items) {
    w.put_string(item.name);
    w.put_vector(item.f32);
    w.put_vector(item.i64);
  }
  ck.set_section(kind, w.take());
}

// Reads back section `kind`, or nullopt when the checkpoint has none. A
// section stamped with another plug-in than `name` fails loudly: silently
// loading another plug-in's state would make the resumed run diverge from
// the uninterrupted one without a trace.
std::optional<std::vector<StateItem>> get_plugin_section(
    const ckpt::Checkpoint& ck, const std::string& path,
    const std::string& kind, const std::string& name) {
  const std::vector<std::uint8_t>* section = ck.section(kind);
  if (section == nullptr) return std::nullopt;
  ckpt::ByteReader r(*section);
  const std::string saved = r.get_string();
  if (saved != name) {
    throw std::runtime_error("checkpoint " + path + " was written by " + kind +
                             " '" + saved + "' but this run uses '" + name +
                             "'");
  }
  const auto n = r.get<std::uint64_t>();
  std::vector<StateItem> items;
  for (std::uint64_t i = 0; i < n; ++i) {
    StateItem item;
    item.name = r.get_string();
    item.f32 = r.get_vector<float>();
    item.i64 = r.get_vector<std::int64_t>();
    items.push_back(std::move(item));
  }
  return items;
}

// The manifest's config dump: the fields that shape the run's trajectory
// (not an exhaustive TrainConfig round-trip — the JSONL records are for
// humans and plotting scripts, the checkpoint is the machine state).
// Plug-in parameters are recorded resolved, so every effective value shows,
// defaults included.
telemetry::Json config_json(const TrainConfig& cfg) {
  const auto params_json = [](const ParamMap& params) {
    telemetry::Json j = telemetry::Json::object();
    for (const auto& [key, value] : params) j[key] = telemetry::Json(value);
    return j;
  };
  telemetry::Json j = telemetry::Json::object();
  j["policy"] = telemetry::Json(to_string(cfg.policy));
  j["strategy"] = telemetry::Json(cfg.strategy);
  j["strategy_params"] = params_json(prune::StrategyRegistry::global().resolve(
      cfg.strategy, cfg.strategy_params));
  j["codec"] = telemetry::Json(cfg.codec);
  j["codec_params"] = params_json(
      dist::CodecRegistry::global().resolve(cfg.codec, cfg.codec_params));
  j["epochs"] = telemetry::Json(cfg.epochs);
  j["batch_size"] = telemetry::Json(cfg.batch_size);
  j["base_lr"] = telemetry::Json(static_cast<double>(cfg.base_lr));
  j["momentum"] = telemetry::Json(static_cast<double>(cfg.momentum));
  j["weight_decay"] = telemetry::Json(static_cast<double>(cfg.weight_decay));
  j["reconfig_interval"] = telemetry::Json(cfg.reconfig_interval);
  j["threshold"] = telemetry::Json(static_cast<double>(cfg.threshold));
  j["fine_tune_epochs"] = telemetry::Json(cfg.fine_tune_epochs);
  j["eval_interval"] = telemetry::Json(cfg.eval_interval);
  j["num_threads"] = telemetry::Json(cfg.num_threads);
  j["prune_min_channels"] = telemetry::Json(cfg.prune_min_channels);
  j["max_rollbacks"] = telemetry::Json(cfg.max_rollbacks);
  j["fault_spec"] = telemetry::Json(cfg.fault_spec);
  j["replicas"] = telemetry::Json(cfg.replicas);
  j["min_live_fraction"] = telemetry::Json(cfg.min_live_fraction);
  j["sdc_check_interval"] = telemetry::Json(cfg.sdc_check_interval);
  j["keep_checkpoints"] = telemetry::Json(cfg.keep_checkpoints);
  return j;
}

struct RunStep {
  enum class Kind {
    kCalibrate,      ///< Eq. 3 lambda probe on the current model
    kPhase,          ///< a training phase (run_phase)
    kReconfigure,    ///< channel-union surgery at cfg.threshold
    kEnterFineTune,  ///< LR decay to the main run's end, lambda to 0
  };
  Kind kind;
  PhaseSpec phase = {};  ///< kPhase only
};

// The run's ordered steps, one list per policy (trainer.h). Phases are
// numbered in list order, which is the phase a checkpoint records.
// validate() sums the phase epochs, run_attempt() walks the list, and a
// resume skips the steps its checkpoint already holds.
std::vector<RunStep> schedule(const TrainConfig& cfg) {
  using Kind = RunStep::Kind;
  std::vector<RunStep> steps;
  const auto phase = [&steps](PhaseSpec spec) {
    steps.push_back({Kind::kPhase, spec});
  };
  switch (cfg.policy) {
    case PrunePolicy::kDense:
      phase({cfg.epochs, false, false, -1});
      return steps;
    case PrunePolicy::kPruneTrain:
      phase({cfg.epochs, true, true, -1});
      break;
    case PrunePolicy::kSSL:
      // Lambda comes from the *random-init* losses (Eq. 3), as for
      // PruneTrain: after dense pre-training the converged classification
      // loss would make it ~0. Then dense pre-training, and a regularized
      // phase on the dense architecture that prunes only at its end.
      steps.push_back({Kind::kCalibrate});
      phase({cfg.epochs, false, false, -1});
      phase({cfg.epochs, true, false, -1});
      steps.push_back({Kind::kReconfigure});
      break;
    case PrunePolicy::kOneShot:
      phase({cfg.epochs, true, false, cfg.one_shot_epoch});
      break;
  }
  // The final pruning pass compacts the reported inference model (a no-op
  // if the last reconfiguration already caught everything).
  if (cfg.final_reconfigure) steps.push_back({Kind::kReconfigure});
  // Optional fine-tuning on the pruned architecture: no regularization, at
  // the main run's final decayed learning rate (Sec. 5.1).
  if (cfg.fine_tune_epochs > 0) {
    steps.push_back({Kind::kEnterFineTune});
    phase({cfg.fine_tune_epochs, false, false, -1});
  }
  return steps;
}

}  // namespace

std::string to_string(PrunePolicy policy) {
  switch (policy) {
    case PrunePolicy::kDense: return "Dense";
    case PrunePolicy::kPruneTrain: return "PruneTrain";
    case PrunePolicy::kSSL: return "SSL";
    case PrunePolicy::kOneShot: return "OneShot";
  }
  return "?";
}

void TrainConfig::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("TrainConfig: " + what);
  };
  if (epochs <= 0) {
    fail("epochs must be positive (got " + std::to_string(epochs) + ")");
  }
  if (batch_size <= 0) {
    fail("batch_size must be positive (got " + std::to_string(batch_size) + ")");
  }
  if (!(base_lr > 0.f)) {
    fail("base_lr must be positive (got " + std::to_string(base_lr) + ")");
  }
  if (reconfig_interval < 1) {
    fail("reconfig_interval must be >= 1 (got " +
         std::to_string(reconfig_interval) + ")");
  }
  if (eval_interval < 1) {
    fail("eval_interval must be >= 1 (got " + std::to_string(eval_interval) +
         ")");
  }
  if (checkpoint_interval < 1) {
    fail("checkpoint_interval must be >= 1 (got " +
         std::to_string(checkpoint_interval) + ")");
  }
  if (fine_tune_epochs < 0) {
    fail("fine_tune_epochs must be >= 0 (got " +
         std::to_string(fine_tune_epochs) + ")");
  }
  if (num_threads < 0) {
    fail("num_threads must be >= 0 (got " + std::to_string(num_threads) + ")");
  }
  health.validate();
  if (max_rollbacks < 0) {
    fail("max_rollbacks must be >= 0 (got " + std::to_string(max_rollbacks) +
         ")");
  }
  if (max_rollbacks > 0 && checkpoint_dir.empty()) {
    fail("max_rollbacks > 0 requires checkpoint_dir (rollback needs a "
         "checkpoint to roll back to)");
  }
  if (!(rollback_lr_cut > 0.f) || rollback_lr_cut > 1.f) {
    fail("rollback_lr_cut must lie in (0, 1] (got " +
         std::to_string(rollback_lr_cut) + ")");
  }
  if (!(rollback_backoff >= 1.0)) {
    fail("rollback_backoff must be >= 1 (got " +
         std::to_string(rollback_backoff) + ")");
  }
  if (!(rollback_backoff_cap >= 0.0)) {
    fail("rollback_backoff_cap must be >= 0 (got " +
         std::to_string(rollback_backoff_cap) + ")");
  }
  if (prune_min_channels < 1) {
    fail("prune_min_channels must be >= 1 (got " +
         std::to_string(prune_min_channels) + ")");
  }
  try {
    // A clause with no consumer in this run shape would otherwise arm and
    // never fire — a silently dead test.
    std::int64_t run_epochs = 0;
    for (const RunStep& step : schedule(*this)) {
      if (step.kind == RunStep::Kind::kPhase) run_epochs += step.phase.epochs;
    }
    robust::validate_training_faults(fault_spec, static_cast<int>(replicas),
                                     !checkpoint_dir.empty(), run_epochs,
                                     allow_rejoin);
  } catch (const std::invalid_argument& e) {
    fail(std::string("fault_spec: ") + e.what());
  }
  if (sdc_check_interval < 0) {
    fail("sdc_check_interval must be >= 0 (got " +
         std::to_string(sdc_check_interval) + ")");
  }
  if (sdc_check_interval > 0 && replicas == 1) {
    fail("sdc_check_interval > 0 requires replicas > 1 (a digest vote of one "
         "replica compares nothing)");
  }
  if (keep_checkpoints < 0) {
    fail("keep_checkpoints must be >= 0 (got " +
         std::to_string(keep_checkpoints) + ")");
  }
  // Strategy: the name must be registered and the parameters must resolve
  // (unknown keys and unparsable or out-of-range values fail here rather
  // than mid-training).
  try {
    (void)prune::StrategyRegistry::global().create(strategy, strategy_params);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  if (strategy != "group_lasso" &&
      (policy == PrunePolicy::kSSL || policy == PrunePolicy::kOneShot)) {
    fail("policy " + to_string(policy) +
         " is a group-lasso training protocol; it requires strategy "
         "\"group_lasso\" (got \"" + strategy + "\")");
  }
  if (strategy == "dsd" && fine_tune_epochs > 0) {
    fail("fine_tune_epochs contradicts strategy \"dsd\": DSD already ends "
         "with a dense retraining window — drop the legacy flag or use "
         "strategy_params[\"sparse_end\"] to shape it");
  }
  if (replicas < 1) {
    fail("replicas must be >= 1 (got " + std::to_string(replicas) + ")");
  }
  // Codec: the name must be registered and every parameter must belong to
  // it (same fail-early contract as the strategy block above).
  try {
    (void)dist::CodecRegistry::global().create(codec, codec_params);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  if (codec != "dense" && replicas <= 1) {
    fail("codec \"" + codec +
         "\" requires replicas > 1 (gradient compression only applies to "
         "the simulated allreduce)");
  }
  // Every run trains on a cluster, so its membership knobs always apply.
  if (!(min_live_fraction > 0.0 && min_live_fraction <= 1.0)) {
    fail("min_live_fraction must lie in (0, 1] (got " +
         std::to_string(min_live_fraction) + ")");
  }
  if (suspect_threshold < 1) {
    fail("suspect_threshold must be >= 1 (got " +
         std::to_string(suspect_threshold) + ")");
  }
}

PruneTrainer::PruneTrainer(graph::Network& net,
                           const data::SyntheticImageDataset& dataset,
                           TrainConfig cfg)
    : net_(&net),
      dataset_(&dataset),
      cfg_(std::move(cfg)),
      loader_(dataset, cfg_.shuffle_seed),
      input_shape_({dataset.spec().channels, dataset.spec().height,
                    dataset.spec().width}),
      batch_size_(cfg_.batch_size) {
  cfg_.validate();
  strategy_ = prune::StrategyRegistry::global().create(cfg_.strategy,
                                                       cfg_.strategy_params);
  // Like the strategy, the codec exists before any resume load so
  // checkpointed codec state (error-feedback residuals, live-row masks)
  // deserializes into the object the cluster will actually use.
  if (cfg_.replicas > 1) {
    codec_ = dist::CodecRegistry::global().create(cfg_.codec, cfg_.codec_params);
  }
  ctx_ = std::make_unique<exec::ExecContext>(static_cast<int>(cfg_.num_threads));
  if (cfg_.health_checks) {
    health_ = std::make_unique<robust::HealthMonitor>(cfg_.health);
  }
  if (cfg_.sdc_check_interval > 0) {
    integrity_ = std::make_unique<robust::IntegrityMonitor>(
        robust::IntegrityConfig{cfg_.sdc_check_interval});
  }
  if (!cfg_.checkpoint_dir.empty()) {
    scrubber_ =
        std::make_unique<robust::CheckpointScrubber>(cfg_.keep_checkpoints);
  }
  // Telemetry comes up before any resume load so the profiling flag can be
  // re-applied to the checkpoint-restored network.
  if (!cfg_.metrics_dir.empty()) {
    telemetry::set_enabled(true);
    net_->set_profiling(true);
    telemetry::RunManifest manifest;
    manifest.run_name = cfg_.run_name;
    manifest.git = telemetry::git_describe();
    manifest.created_unix = static_cast<std::int64_t>(std::time(nullptr));
    manifest.seed = cfg_.shuffle_seed;
    manifest.config = config_json(cfg_);
    recorder_ =
        std::make_unique<telemetry::RunRecorder>(cfg_.metrics_dir, manifest);
    // Epoch records carry span windows; the first one opens here.
    telemetry::MetricsRegistry::global().take_span_window();
  }
  if (!cfg_.resume_from.empty()) load_checkpoint_file(cfg_.resume_from);
  if (cfg_.record_sparsity && !monitor_) {
    monitor_ = std::make_unique<prune::SparsityMonitor>(net);
  }
  rebuild_cluster(
      robust::FaultInjector::from_string(cfg_.fault_spec, cfg_.fault_seed));
}

void PruneTrainer::rebuild_cluster(robust::FaultInjector injector) {
  cost::CommSpec comm = cfg_.comm;
  comm.gpus = static_cast<int>(cfg_.replicas);
  dist::MembershipConfig membership;
  membership.suspect_threshold = static_cast<int>(cfg_.suspect_threshold);
  membership.min_live_fraction = cfg_.min_live_fraction;
  membership.allow_rejoin = cfg_.allow_rejoin;
  cluster_ = std::make_unique<dist::ElasticCluster>(
      *net_, static_cast<int>(cfg_.replicas), comm, membership);
  // Share (not copy) the trainer-owned codec: set_codec re-binds it to the
  // rebuilt replica topology, and shape-compatible residual state — loaded
  // from a checkpoint or carried across a rollback — survives the bind.
  if (codec_) cluster_->set_codec(codec_);
  cluster_->set_fault_injector(std::move(injector));
  if (!cfg_.checkpoint_dir.empty()) {
    namespace fs = std::filesystem;
    const fs::path latest = fs::path(cfg_.checkpoint_dir) / "ckpt-latest.bin";
    if (fs::exists(latest)) cluster_->set_resync_checkpoint(latest.string());
  }
}

void PruneTrainer::sync_net_from_cluster() {
  int src = -1;
  for (int r = 0; r < cluster_->size(); ++r) {
    const dist::MemberStatus& m = cluster_->member(r);
    if (m.state == dist::ReplicaState::kHealthy && !m.failed) {
      src = r;
      break;
    }
  }
  // Rank 0 is *net_ itself; below quorum (src < 0) the step already threw.
  if (src <= 0) return;
  if (cluster_->copy_replica(src, 0).rebuilt) {
    if (recorder_) net_->set_profiling(true);
    ctx_->rebuild_workspace();
  }
}

prune::ReconfigStats PruneTrainer::reconfigure(TrainResult& result,
                                               float threshold) {
  prune::ReconfigStats rstats;
  {
    telemetry::ScopedTimer span("reconfigure");
    rstats = prune::Reconfigurer(*net_, threshold, cfg_.prune_min_channels)
                 .reconfigure();
  }
  result.layers_removed += rstats.convs_removed;
  // Rank 0 is *net_, which the surgery above already reached.
  for (int r = 1; r < cluster_->size(); ++r) {
    const dist::MemberStatus& m = cluster_->member(r);
    // Live members are bit-identical to *net_ pre-surgery, so the same
    // deterministic surgery lands them on the same topology. A freshly
    // resynced rejoiner (still REJOINING until the next poll) is equally
    // current. Failed replicas stay stale until a rejoin resync.
    const bool current =
        (m.state == dist::ReplicaState::kHealthy && !m.failed) ||
        m.state == dist::ReplicaState::kRejoining;
    if (!current) continue;
    prune::Reconfigurer reconfigurer(cluster_->replica(r), threshold,
                                     cfg_.prune_min_channels);
    reconfigurer.reconfigure();
  }
  // Re-bind the codec against the post-surgery topology: twobit re-sizes
  // its residuals, live_channel recompacts its live-row set — including
  // rows the surgery could *not* remove (min-channel floors, cross-layer
  // unions) that the proximal step has already zeroed. This runs even when
  // the surgery changed nothing, for exactly that reason.
  cluster_->codec().bind(*net_, cluster_->size());
  if (rstats.changed) {
    // Surgery may have dropped channels the strategy tracks by index;
    // give it a chance to rebuild (masks, thresholds, saliency).
    strategy_->on_reconfigured(*net_);
    // The workspace is sized for the pre-surgery shapes; drop it so its
    // capacity — and the high-water statistic — re-measures the pruned
    // hot loop.
    ctx_->rebuild_workspace();
  }
  return rstats;
}

float PruneTrainer::calibrate_lambda(TrainResult& result) {
  loader_.begin_epoch();
  data::Batch probe = loader_.next(std::min<std::int64_t>(batch_size_, 32));
  nn::SoftmaxCrossEntropy loss;
  Tensor out = net_->forward(*ctx_, probe.images, false);
  const double class_loss = loss.forward(out, probe.labels);
  net_->clear_context();
  result.lambda =
      strategy_->calibrate(class_loss, strategy_->regularization_loss(*net_));
  if (cfg_.verbose) {
    std::ostringstream os;
    os << to_string(cfg_.policy) << ": calibrated lambda=" << result.lambda;
    log_info(os.str());
  }
  return result.lambda;
}

double PruneTrainer::evaluate() {
  telemetry::ScopedTimer span("eval");
  const Tensor& images = dataset_->test_images();
  const auto& labels = dataset_->test_labels();
  const std::int64_t n = images.shape()[0];
  const std::int64_t chunk = 64;
  const std::int64_t sample_len =
      images.shape()[1] * images.shape()[2] * images.shape()[3];
  std::int64_t correct = 0;
  for (std::int64_t start = 0; start < n; start += chunk) {
    const std::int64_t take = std::min(chunk, n - start);
    Tensor batch({take, images.shape()[1], images.shape()[2], images.shape()[3]});
    std::copy(images.data() + start * sample_len,
              images.data() + (start + take) * sample_len, batch.data());
    Tensor out = net_->forward(*ctx_, batch, false);
    std::vector<std::int64_t> batch_labels(labels.begin() + start,
                                           labels.begin() + start + take);
    nn::SoftmaxCrossEntropy loss;
    loss.forward(out, batch_labels);
    correct += loss.correct();
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

void PruneTrainer::train_epoch(EpochStats& stats, float lambda, float lr,
                               bool sparsify) {
  telemetry::ScopedTimer span("sgd");
  optim::SGD opt(lr, cfg_.momentum, cfg_.weight_decay);
  prune::StepInfo info;
  info.epoch = epoch_counter_;
  info.lr = lr;
  info.lambda = lambda;
  info.sparsify = sparsify;
  // Per-replica hooks run around each replica's optimizer step, in replica
  // order on the stepping thread. Strategy *state* must advance exactly
  // once per optimizer step (replicas hold bit-identical weights after the
  // all-reduce), so post_step_update fires only for the first participant;
  // the gradient- and weight-mutating hooks run for every replica so they
  // stay bit-identical. The strategy reads each replica's Network fresh — a
  // rejoin may replace a replica's Network mid-epoch, and a cached view
  // would dangle.
  prune::Strategy* strat = strategy_.get();
  dist::ElasticCluster::StepHooks hooks;
  hooks.before_update = [strat, info](graph::Network& net, bool) {
    strat->accumulate_gradients(net, info);
  };
  hooks.after_update = [strat, info](graph::Network& net, bool first) {
    if (first) strat->post_step_update(net, info);
    strat->post_step(net, info);
  };

  loader_.begin_epoch();
  double loss_sum = 0;
  std::int64_t correct = 0, samples = 0;
  try {
    for (std::int64_t step = 0; loader_.has_next(); ++step) {
      data::Batch batch = loader_.next(batch_size_);
      const dist::StepResult r =
          cluster_->step(*ctx_, batch, opt, hooks, epoch_counter_, step);
      loss_sum += r.loss_sum;
      correct += r.correct;
      samples += r.processed;
      stats.comm_bytes_per_gpu += r.comm_bytes_per_gpu;
      stats.comm_time_modeled += r.comm_time_modeled;
      // Digest vote immediately after the step, before the next batch: a
      // bit flipped this step is caught before the next allreduce can
      // average it into the healthy replicas.
      if (integrity_ && integrity_->due(cluster_->steps())) {
        run_integrity_check();
      }
    }
  } catch (const dist::ReplicaDivergence& e) {
    // Structured guardian pathway: with recovery enabled the rollback loop
    // rebuilds the cluster from the last good checkpoint; without it the
    // divergence propagates as-is.
    robust::HealthEvent ev = e.to_health_event(epoch_counter_);
    report_.events.push_back(ev);
    log_error("guardian: " + ev.describe());
    if (cfg_.max_rollbacks > 0) throw robust::FatalHealthError(std::move(ev));
    throw;
  }
  stats.train_loss = loss_sum / static_cast<double>(samples);
  stats.train_acc = static_cast<double>(correct) / static_cast<double>(samples);

  for (const dist::MembershipTransition& t : cluster_->drain_transitions()) {
    log_warn("cluster: " + t.describe());
  }

  // Everything downstream of the epoch (health checks, evaluation, cost
  // models, checkpoints) reads *net_; bring it up to date.
  sync_net_from_cluster();
  stats.lasso_loss = strategy_->regularization_loss(*net_);
}

void PruneTrainer::run_integrity_check() {
  std::vector<robust::ReplicaView> views;
  for (int r : cluster_->membership().participants()) {
    views.push_back({r, &cluster_->replica(r)});
  }
  const std::vector<StateItem> sstate = strategy_->state();
  // Codec residual/mask state steers what every future exchange averages,
  // so it is digested alongside the strategy state. It is one object
  // shared by the whole cluster — every view digests the same bytes — so
  // including it can never split an honest vote.
  const std::vector<StateItem> cstate =
      codec_ ? codec_->state() : std::vector<StateItem>{};
  dist::ElasticCluster* cluster = cluster_.get();
  const robust::VoteOutcome out = integrity_->check_replicas(
      views, *ctx_, &sstate,
      [cluster](int victim, int root) {
        return cluster->heal_replica(victim, root);
      },
      cstate.empty() ? nullptr : &cstate);
  if (out.no_quorum) {
    // A split with no strict majority cannot say which side is corrupt;
    // healing would be a coin flip, so escalate to the guardian instead.
    robust::HealthEvent ev{robust::EventType::kSdcNoQuorum,
                           robust::Severity::kFatal, epoch_counter_,
                           static_cast<double>(views.size()), out.detail};
    report_.events.push_back(ev);
    log_error("guardian: " + ev.describe());
    throw robust::FatalHealthError(std::move(ev));
  }
  if (out.mismatch) {
    // Convicted minorities were healed in place by a fenced state copy —
    // a warning, not a rollback: no steps were lost.
    robust::HealthEvent ev{robust::EventType::kSdcDetected,
                           robust::Severity::kWarning, epoch_counter_,
                           static_cast<double>(out.healed.size()), out.detail};
    report_.events.push_back(ev);
    log_warn("guardian: " + ev.describe());
  }
}

void PruneTrainer::run_phase(TrainResult& result, const PhaseSpec& spec,
                             std::int64_t phase, std::int64_t start,
                             float& lambda) {
  optim::MultiStepLR schedule(cfg_.lr_milestones, cfg_.lr_gamma);
  DynamicBatchAdjuster adjuster(cfg_.dynamic_batch);

  for (std::int64_t e = start; e < spec.epochs; ++e) {
    EpochStats stats;
    telemetry::ReconfigRecord reconfig_rec;
    {
      // The epoch's span closes before its checkpoint and record, so each
      // record's span window holds its own train/epoch.
      Timer wall;
      telemetry::ScopedTimer epoch_span("epoch");
      stats.epoch = epoch_counter_;

      const float lr = cfg_.base_lr * lr_scale_ * recovery_lr_scale_ *
                       static_cast<float>(schedule.multiplier_at(e));

      prune::EpochInfo einfo;
      einfo.global_epoch = epoch_counter_;
      einfo.epoch_in_phase = e;
      einfo.phase_epochs = spec.epochs;
      einfo.sparsify = spec.sparsify;
      einfo.periodic_reconfig = spec.periodic_reconfig;
      einfo.one_shot_at = spec.one_shot_at;
      einfo.reconfig_interval = cfg_.reconfig_interval;
      einfo.threshold = cfg_.threshold;
      einfo.min_channels = cfg_.prune_min_channels;
      einfo.lr = lr;
      strategy_->on_epoch_begin(*net_, einfo);

      // Eq. 3: calibrate lambda at the first regularized iteration using the
      // initial classification loss and lasso sum. Only strategies that opt
      // in (group lasso) consume lambda; the probe batch draws from the
      // shared shuffle RNG, so skipping it for other strategies keeps their
      // data order undisturbed.
      if (spec.sparsify && lambda < 0.f &&
          strategy_->wants_lambda_calibration()) {
        lambda = calibrate_lambda(result);
      }

      stats.lr = lr;
      stats.batch_size = batch_size_;
      train_epoch(stats, (spec.sparsify && lambda > 0.f) ? lambda : 0.f, lr,
                  spec.sparsify);
      if (monitor_) monitor_->record(epoch_counter_);

      // Guardian: health-check the epoch *before* anything downstream (the
      // checkpoint save in particular — a poisoned model must never become
      // the "last good" state). A fatal event with recovery enabled unwinds
      // to run()'s rollback loop; without recovery it is logged and recorded
      // but the run is left to its fate, matching historical behavior.
      if (health_) {
        const std::vector<robust::HealthEvent> events =
            health_->check_epoch(epoch_counter_, stats.train_loss, *net_);
        for (const robust::HealthEvent& ev : events) {
          report_.events.push_back(ev);
          if (ev.severity == robust::Severity::kFatal) {
            log_error("guardian: " + ev.describe());
          } else {
            log_warn("guardian: " + ev.describe());
          }
        }
        const robust::HealthEvent* fatal =
            robust::HealthMonitor::first_fatal(events);
        if (fatal != nullptr && cfg_.max_rollbacks > 0) {
          throw robust::FatalHealthError(*fatal);
        }
      }

      // Prune + reconfigure at epoch boundaries, on the strategy's cadence
      // (the default implementation reproduces the paper's periodic /
      // one-shot schedule).
      const prune::ReconfigDecision decision =
          strategy_->propose_reconfigure(einfo);
      if (decision.reconfigure) {
        if (health_) {
          const std::vector<robust::HealthEvent> events =
              health_->check_prune(epoch_counter_, *net_, decision.threshold);
          for (const robust::HealthEvent& ev : events) {
            report_.events.push_back(ev);
            log_warn("guardian: " + ev.describe());
          }
        }
        const prune::ReconfigStats rstats =
            reconfigure(result, decision.threshold);
        stats.reconfigured = rstats.changed;
        reconfig_rec = {rstats, /*happened=*/true};
        if (telemetry::enabled()) {
          telemetry::count("prune/reconfigurations");
          telemetry::gauge("prune/channels_alive",
                           static_cast<double>(rstats.channels_after));
          std::ostringstream os;
          os << "epoch " << epoch_counter_ << ": channels "
             << rstats.channels_before << " -> " << rstats.channels_after
             << ", convs removed " << rstats.convs_removed
             << ", blocks removed " << rstats.blocks_removed;
          telemetry::event("prune/reconfigure", os.str());
        }
        if (rstats.changed) {
          const auto adj = adjuster.propose(*net_, input_shape_, batch_size_);
          if (adj.changed) {
            if (cfg_.verbose) {
              std::ostringstream os;
              os << "epoch " << epoch_counter_ << ": batch " << batch_size_
                 << " -> " << adj.new_batch << " (lr x" << adj.lr_scale << ")";
              log_info(os.str());
            }
            batch_size_ = adj.new_batch;
            lr_scale_ *= adj.lr_scale;
          }
        }
      }

      // Cost accounting for this epoch's *actual* model and batch size.
      cost::FlopsModel flops(*net_, input_shape_);
      cost::MemoryModel mem(*net_, input_shape_, ctx_.get(), cfg_.replicas);
      cost::CommModel comm(cfg_.comm);
      cost::DeviceModel device(cfg_.device);
      const std::int64_t samples = dataset_->train_size();
      const std::int64_t iters = loader_.iterations_per_epoch(batch_size_);
      const double model_bytes = static_cast<double>(net_->num_params()) * 4.0;

      stats.flops_per_sample_train = flops.training_flops();
      stats.flops_per_sample_inf = flops.inference_flops();
      stats.epoch_train_flops =
          flops.training_flops() * static_cast<double>(samples);
      stats.epoch_bn_traffic =
          mem.bn_traffic_per_sample() * static_cast<double>(samples);
      stats.memory_bytes = mem.training_bytes(batch_size_);
      if (cfg_.replicas == 1) {
        // A single-device run stands in for the paper's comm.gpus-GPU job,
        // and fig11_comm_cost and table4 read this static model. A cluster
        // run accumulated its per-step cost at the live ring size instead.
        cost::CommQuery q;
        q.model_bytes = model_bytes;
        q.updates = iters;
        const cost::CommCost cc = comm.cost(q);
        stats.comm_bytes_per_gpu = cc.wire_bytes;
        stats.comm_time_modeled = cc.hierarchical_time;
      }
      stats.gpu_time_modeled =
          device.training_time(*net_, input_shape_, batch_size_) *
          static_cast<double>(iters);
      std::int64_t channels = 0;
      for (int id : net_->nodes_of_type<nn::Conv2d>()) {
        channels += net_->layer_as<nn::Conv2d>(id).out_channels();
      }
      stats.channels_alive = channels;
      stats.conv_layers = models::count_conv_layers(*net_);
      if (cfg_.eval_interval <= 1 || e == spec.epochs - 1 ||
          epoch_counter_ % cfg_.eval_interval == 0) {
        last_test_acc_ = evaluate();
      }
      stats.test_acc = last_test_acc_;
      stats.wall_seconds = wall.seconds();

      result.total_train_flops += stats.epoch_train_flops;
      result.total_bn_traffic += stats.epoch_bn_traffic;
      result.total_comm_bytes += stats.comm_bytes_per_gpu;
      result.total_gpu_time_modeled += stats.gpu_time_modeled;
      result.total_wall_seconds += stats.wall_seconds;

      if (cfg_.verbose) {
        std::ostringstream os;
        os << to_string(cfg_.policy) << " epoch " << epoch_counter_ << ": loss "
           << stats.train_loss << " acc " << stats.train_acc << " test "
           << stats.test_acc << " ch " << stats.channels_alive;
        log_info(os.str());
      }
      result.epochs.push_back(stats);
    }
    ++epoch_counter_;

    if (!cfg_.checkpoint_dir.empty() &&
        epoch_counter_ % cfg_.checkpoint_interval == 0) {
      save_checkpoint(result, phase, e + 1, lambda);
    }
    if (recorder_) emit_epoch_record(stats, reconfig_rec);
  }
}

void PruneTrainer::emit_epoch_record(const EpochStats& stats,
                                     const telemetry::ReconfigRecord& reconfig) {
  telemetry::EpochRecord rec;
  rec.strategy = cfg_.strategy;
  static_cast<EpochStats&>(rec) = stats;
  rec.reconfig = reconfig;

  // Per-layer analytical FLOPs are computed on the *current* model, so an
  // epoch that reconfigured reports the post-surgery (smaller) costs; the
  // measured wall-times come from this epoch's execution profile, merged
  // by (stable) node id.
  rec.layers = telemetry::collect_layer_records(*net_, input_shape_);
  for (const prune::LayerDensity& d :
       prune::layer_densities(*net_, cfg_.threshold)) {
    rec.sparsity.push_back({d.name, d.channel_density, d.weight_density});
  }

  // Execution-context statistics: pool throughput and workspace sizing.
  // A flat exec/workspace_allocations gauge across steady-state epochs is
  // the "zero hot-path heap allocations" evidence.
  const exec::WorkspaceStats ws = ctx_->workspace_stats();
  telemetry::gauge("exec/threads", static_cast<double>(ctx_->num_threads()));
  telemetry::gauge("exec/tasks_run",
                   static_cast<double>(ctx_->pool().tasks_run()));
  telemetry::gauge("exec/workspace_reserved_bytes",
                   static_cast<double>(ws.bytes_reserved));
  telemetry::gauge("exec/workspace_high_water_bytes",
                   static_cast<double>(ws.high_water_bytes));
  telemetry::gauge("exec/workspace_allocations",
                   static_cast<double>(ws.heap_allocations));
  telemetry::gauge("exec/workspace_reserves", static_cast<double>(ws.reserves));

  // Integrity observables: digest checks run, mismatches convicted, heals
  // performed, and the modeled exchange/heal traffic.
  if (integrity_) {
    telemetry::gauge("integrity/checks",
                     static_cast<double>(integrity_->checks()));
    telemetry::gauge("integrity/mismatches",
                     static_cast<double>(integrity_->mismatches()));
    telemetry::gauge("integrity/heals",
                     static_cast<double>(integrity_->heals()));
    telemetry::gauge("integrity/heal_bytes",
                     static_cast<double>(integrity_->heal_bytes_total()));
    telemetry::gauge("integrity/digest_bytes",
                     static_cast<double>(integrity_->digest_bytes_total()));
  }
  if (scrubber_) {
    telemetry::gauge("integrity/ckpt_generations",
                     static_cast<double>(scrubber_->generations().size()));
    telemetry::gauge("integrity/ckpt_evicted",
                     static_cast<double>(scrubber_->evicted()));
  }

  // Strategy-specific observables (threshold means, mask fractions, ...)
  // land in the same gauge namespace as everything else.
  for (const auto& [key, value] : strategy_->metrics()) {
    telemetry::gauge("strategy/" + key, value);
  }

  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  rec.counters = reg.counters();
  rec.gauges = reg.gauges();
  // Spans are this record's window: those closed since the previous
  // record, this epoch's own train/epoch and train/checkpoint included.
  rec.spans = reg.take_span_window();
  recorder_->append(rec);
  // Per-layer times are per-epoch quantities too; the registry's counters
  // stay cumulative across the run.
  net_->reset_profile();
}

template <class F>
void PruneTrainer::for_each_section_field(ResumePoint& at, RngState& rng,
                                          F&& f) {
  f("phase", at.phase);
  f("phase_epochs_done", at.epochs_done);
  f("epoch_counter", epoch_counter_);
  f("batch_size", batch_size_);
  f("lambda", at.lambda);
  f("lr_scale", lr_scale_);
  f("last_test_acc", last_test_acc_);
  f("rng_s0", rng.s0);
  f("rng_s1", rng.s1);
  f("rng_cached_normal", rng.cached_normal);
  f("rng_has_cached_normal", rng.has_cached_normal);
  for_each_field(at.result, f);
  f("epochs", at.result.epochs);
}

void PruneTrainer::save_checkpoint(const TrainResult& result, std::int64_t phase,
                                   std::int64_t phase_epochs_done,
                                   float lambda) {
  telemetry::ScopedTimer span("checkpoint");
  namespace fs = std::filesystem;
  fs::create_directories(cfg_.checkpoint_dir);

  ckpt::Checkpoint ck = ckpt::Checkpoint::capture(*net_);

  ckpt::ByteWriter w;
  ResumePoint at{phase, phase_epochs_done, lambda, result};
  RngState rng = loader_.rng_state();
  for_each_section_field(at, rng, PutField{w});
  ck.set_section("trainer", w.take());

  // Strategy and codec state ride as name-stamped sections so
  // resume/rollback replays them bitwise: the sparsifier's masks, trainable
  // thresholds and saliency EWMAs, and the codec's error-feedback residuals
  // and live-row masks (without those the replayed exchanges diverge from
  // the uninterrupted run). The codec section is written whenever a codec
  // exists, stateless or not, so the load side can verify the name.
  put_plugin_section(ck, "strategy", cfg_.strategy, strategy_->state());
  if (codec_) put_plugin_section(ck, "codec", cfg_.codec, codec_->state());

  if (monitor_) {
    ckpt::ByteWriter m;
    const auto& history = monitor_->history();
    m.put<std::uint64_t>(history.size());
    for (const auto& h : history) {
      m.put<std::int32_t>(h.node);
      m.put_string(h.name);
      m.put_vector(h.epochs);
      m.put<std::uint64_t>(h.max_abs.size());
      for (const auto& row : h.max_abs) m.put_vector(row);
    }
    ck.set_section("sparsity_monitor", m.take());
  }

  const fs::path dir(cfg_.checkpoint_dir);
  const std::string numbered =
      (dir / ("ckpt-epoch-" + std::to_string(epoch_counter_) + ".bin")).string();
  const std::string latest = (dir / "ckpt-latest.bin").string();
  ck.save(numbered);
  ck.save(latest);
  // Checkpoint-corruption faults strike the freshly written files — the
  // torn-write / bit-rot failure mode find_rollback_target must survive by
  // falling back to an older intact checkpoint.
  cluster_->fault_injector().corrupt_checkpoint_files({numbered, latest},
                                                      epoch_counter_);
  // Generation-chain bookkeeping: register the numbered save (evicting
  // beyond keep_checkpoints) and re-validate every retained generation's
  // CRC, so a later rollback knows which generations are trustworthy
  // without trial-loading each one. Scrubbing runs *after* fault
  // injection — a torn write is caught on the very pass that follows it.
  if (scrubber_) {
    scrubber_->note_saved(numbered, epoch_counter_);
    scrubber_->scrub(*ctx_);
  }
  // Rejoining replicas resync their topology from the freshest save.
  cluster_->set_resync_checkpoint(latest);
}

void PruneTrainer::load_checkpoint_file(const std::string& path) {
  ckpt::Checkpoint ck = ckpt::Checkpoint::load(path);
  *net_ = ck.restore_network();
  // The restored network starts with profiling off; keep instrumenting
  // when this run records telemetry (resume and rollback paths).
  if (recorder_) net_->set_profiling(true);
  // The restored model's shapes may differ from what the workspace was sized
  // for (the checkpoint is post-reconfiguration); re-measure from scratch.
  ctx_->rebuild_workspace();

  const std::vector<std::uint8_t>* section = ck.section("trainer");
  if (section == nullptr) {
    throw std::runtime_error("checkpoint " + path +
                             " has no trainer section (not written by "
                             "PruneTrainer?)");
  }
  ckpt::ByteReader r(*section);
  ResumePoint at;
  RngState rng;
  for_each_section_field(at, rng, GetField{r});
  loader_.set_rng_state(rng);
  resume_ = std::move(at);

  // Strategy state: absent in pre-strategy checkpoints (the sparsifier then
  // starts fresh, which is exactly what those checkpoints' runs did).
  if (auto items = get_plugin_section(ck, path, "strategy", cfg_.strategy)) {
    strategy_->load_state(*items);
  }
  // Codec state: absent in pre-codec checkpoints and ignored by
  // single-device runs, which have no exchange to compress.
  if (codec_) {
    const auto items = get_plugin_section(ck, path, "codec", codec_->name());
    if (items && !items->empty()) codec_->load_state(*items);
  }

  if (cfg_.record_sparsity) {
    monitor_ = std::make_unique<prune::SparsityMonitor>(*net_);
    if (const std::vector<std::uint8_t>* mon = ck.section("sparsity_monitor")) {
      ckpt::ByteReader mr(*mon);
      std::vector<prune::SparsityMonitor::ConvHistory> history(
          static_cast<std::size_t>(mr.get<std::uint64_t>()));
      for (auto& h : history) {
        h.node = mr.get<std::int32_t>();
        h.name = mr.get_string();
        h.epochs = mr.get_vector<std::int64_t>();
        h.max_abs.resize(static_cast<std::size_t>(mr.get<std::uint64_t>()));
        for (auto& row : h.max_abs) row = mr.get_vector<float>();
      }
      monitor_->set_history(std::move(history));
    }
  }
}

const robust::RecoveryReport& PruneTrainer::recovery_report() const {
  report_.faults_injected = cluster_->fault_injector().total_fires();
  return report_;
}

TrainResult PruneTrainer::run() {
  telemetry::ScopedTimer run_span("train");
  try {
    if (cfg_.max_rollbacks <= 0) return run_attempt();

    robust::RecoveryConfig rc;
    rc.max_rollbacks = cfg_.max_rollbacks;
    rc.lr_cut = cfg_.rollback_lr_cut;
    rc.backoff_base = cfg_.rollback_backoff;
    rc.backoff_cap = cfg_.rollback_backoff_cap;
    robust::RecoveryPolicy policy(rc);

    for (;;) {
      try {
        return run_attempt();
      } catch (const robust::FatalHealthError& err) {
        const robust::RecoveryPolicy::Decision decision =
            policy.on_fatal(err.event());
        if (decision.action ==
            robust::RecoveryPolicy::Decision::Action::kAbort) {
          report_.aborted = true;
          save_diagnostic_checkpoint();
          log_error("guardian: rollback budget (" +
                    std::to_string(cfg_.max_rollbacks) +
                    ") exhausted; aborting with diagnostic checkpoint");
          throw robust::TrainingAborted(
              "training aborted after " + std::to_string(policy.rollbacks()) +
                  " rollbacks: " + err.event().describe(),
              recovery_report());
        }
        rollback(decision, err.event());
      }
    }
  } catch (const dist::ClusterDegraded& err) {
    // Quorum loss is not a rollback-recoverable fault: restoring a
    // checkpoint cannot revive dead workers. Checkpoint-and-abort so the
    // operator gets the model plus a serialized guardian report instead of
    // a crash or a silent small-batch run.
    robust::HealthEvent ev = err.event();
    if (ev.epoch < 0) ev.epoch = epoch_counter_;
    report_.events.push_back(ev);
    report_.aborted = true;
    save_diagnostic_checkpoint();
    log_error("guardian: " + ev.describe() +
              "; aborting with diagnostic checkpoint");
    throw robust::TrainingAborted("training aborted: " + ev.describe(),
                                  recovery_report());
  }
}

void PruneTrainer::rollback(robust::RecoveryPolicy::Decision decision,
                            const robust::HealthEvent& cause) {
  // The scrubber's verdicts let the selection skip checkpoints already
  // known corrupt without paying a trial load; either way the decision
  // records the generation actually restored and how many newer corrupt
  // generations were cascaded past.
  const robust::RollbackTarget target =
      robust::find_rollback_target(cfg_.checkpoint_dir, scrubber_.get());
  const std::string& path = target.path;
  if (path.empty()) {
    report_.aborted = true;
    save_diagnostic_checkpoint();
    throw robust::TrainingAborted("rollback: no loadable checkpoint in '" +
                                      cfg_.checkpoint_dir +
                                      "' (cause: " + cause.describe() + ")",
                                  recovery_report());
  }
  decision.checkpoint = path;
  decision.generation = target.generation;
  decision.cascaded_past = target.skipped_corrupt;
  if (target.skipped_corrupt > 0) {
    std::ostringstream cs;
    cs << "rollback cascaded past " << target.skipped_corrupt
       << " corrupt checkpoint(s) to generation " << target.generation << " ("
       << path << ")";
    robust::HealthEvent ev{robust::EventType::kCheckpointCascade,
                           robust::Severity::kWarning, epoch_counter_,
                           static_cast<double>(target.skipped_corrupt),
                           cs.str()};
    report_.events.push_back(ev);
    log_warn("guardian: " + ev.describe());
    if (telemetry::enabled()) {
      telemetry::event("health/checkpoint-cascade", ev.describe());
    }
  }
  // load_checkpoint_file restores the model, optimizer momentum, BN stats,
  // shuffle-RNG state, counters, and partial statistics, and sets resume_:
  // the retry re-enters the schedule exactly as a crash-resume would, just
  // in-process.
  load_checkpoint_file(path);
  // The retry runs on a fresh cluster built from the restored model; the
  // injector's fire-state survives so consumed faults stay consumed, and
  // every replica gets a fresh HEALTHY record ("the failed node was
  // replaced at job restart").
  rebuild_cluster(cluster_->take_fault_injector());
  recovery_lr_scale_ = decision.lr_scale;
  ++report_.rollbacks;
  report_.backoff_seconds += decision.backoff_seconds;
  report_.last_checkpoint = path;
  if (health_) health_->reset_window();
  std::ostringstream os;
  os << "guardian: rollback #" << decision.attempt << " -> " << path << " (lr x"
     << decision.lr_scale << ", modeled backoff " << decision.backoff_seconds
     << "s) after " << cause.describe();
  log_warn(os.str());
}

void PruneTrainer::save_diagnostic_checkpoint() {
  if (cfg_.checkpoint_dir.empty()) return;
  try {
    namespace fs = std::filesystem;
    fs::create_directories(cfg_.checkpoint_dir);
    ckpt::Checkpoint ck = ckpt::Checkpoint::capture(*net_);
    ck.set_section("guardian", robust::serialize_report(recovery_report()));
    const std::string path =
        (fs::path(cfg_.checkpoint_dir) / "ckpt-diagnostic.bin").string();
    ck.save(path);
    log_info("guardian: diagnostic checkpoint written to " + path);
  } catch (const std::exception& e) {
    // The abort path must stay reachable even on a dead disk.
    log_error(std::string("guardian: diagnostic checkpoint failed: ") +
              e.what());
  }
}

void PruneTrainer::ensure_initial_checkpoint(const TrainResult& result,
                                             float lambda) {
  if (cfg_.max_rollbacks <= 0 || initial_ckpt_saved_) return;
  save_checkpoint(result, resume_ ? resume_->phase : 0,
                  resume_ ? resume_->epochs_done : 0, lambda);
  initial_ckpt_saved_ = true;
}

TrainResult PruneTrainer::run_attempt() {
  // Each attempt walks the schedule from the top. A checkpoint taken in
  // phase q holds every step before phase q and the first epochs_done
  // epochs of phase q, so a resumed attempt starts from its partial
  // statistics and lambda, skips those steps and re-enters phase q at its
  // first unfinished epoch. The restored model, optimizer and RNG state
  // make the rest bitwise-identical to an uninterrupted run.
  TrainResult result = resume_ ? resume_->result : TrainResult{};
  float lambda = resume_ ? resume_->lambda : -1.f;  // -1: calibrate lazily
  std::int64_t phase = 0;  // the index of the next phase step
  for (const RunStep& step : schedule(cfg_)) {
    const bool held = resume_ && resume_->phase >= phase;
    switch (step.kind) {
      case RunStep::Kind::kCalibrate:
        if (!held) lambda = calibrate_lambda(result);
        break;
      case RunStep::Kind::kPhase: {
        // The rollback anchor comes after any calibration, so the probe's
        // RNG draws and lambda are baked into it.
        if (phase == 0) ensure_initial_checkpoint(result, lambda);
        std::int64_t start = 0;
        if (held) {
          start = resume_->phase == phase ? resume_->epochs_done
                                          : step.phase.epochs;
        }
        run_phase(result, step.phase, phase++, start, lambda);
        break;
      }
      case RunStep::Kind::kReconfigure:
        if (!held) reconfigure(result, cfg_.threshold);
        break;
      case RunStep::Kind::kEnterFineTune:
        // A checkpoint taken during fine-tuning already carries the decay
        // in its lr scale.
        if (!held) {
          optim::MultiStepLR lr(cfg_.lr_milestones, cfg_.lr_gamma);
          lr_scale_ *= static_cast<float>(lr.multiplier_at(cfg_.epochs));
        }
        lambda = 0.f;
        break;
    }
  }

  cost::FlopsModel flops(*net_, input_shape_);
  result.final_inference_flops = flops.inference_flops();
  result.final_test_acc = evaluate();
  std::int64_t channels = 0;
  for (int id : net_->nodes_of_type<nn::Conv2d>()) {
    channels += net_->layer_as<nn::Conv2d>(id).out_channels();
  }
  result.final_channels = channels;
  return result;
}

}  // namespace pt::core
