#include "core/trainer.h"

#include <cmath>
#include <ctime>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>

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

namespace {

// Trainer-section (de)serialization. The section rides inside the
// checkpoint as an opaque named blob, so src/ckpt never needs to know
// these types; both sides must agree on the field sequence.

void put_epoch_stats(ckpt::ByteWriter& w, const EpochStats& s) {
  w.put<std::int64_t>(s.epoch);
  w.put<std::int64_t>(s.batch_size);
  w.put<double>(s.lr);
  w.put<double>(s.train_loss);
  w.put<double>(s.train_acc);
  w.put<double>(s.test_acc);
  w.put<double>(s.lasso_loss);
  w.put<double>(s.flops_per_sample_train);
  w.put<double>(s.flops_per_sample_inf);
  w.put<double>(s.epoch_train_flops);
  w.put<double>(s.epoch_bn_traffic);
  w.put<double>(s.memory_bytes);
  w.put<double>(s.comm_bytes_per_gpu);
  w.put<double>(s.comm_time_modeled);
  w.put<double>(s.gpu_time_modeled);
  w.put<double>(s.wall_seconds);
  w.put<std::int64_t>(s.channels_alive);
  w.put<std::int64_t>(s.conv_layers);
  w.put<std::uint8_t>(s.reconfigured ? 1 : 0);
}

EpochStats get_epoch_stats(ckpt::ByteReader& r) {
  EpochStats s;
  s.epoch = r.get<std::int64_t>();
  s.batch_size = r.get<std::int64_t>();
  s.lr = r.get<double>();
  s.train_loss = r.get<double>();
  s.train_acc = r.get<double>();
  s.test_acc = r.get<double>();
  s.lasso_loss = r.get<double>();
  s.flops_per_sample_train = r.get<double>();
  s.flops_per_sample_inf = r.get<double>();
  s.epoch_train_flops = r.get<double>();
  s.epoch_bn_traffic = r.get<double>();
  s.memory_bytes = r.get<double>();
  s.comm_bytes_per_gpu = r.get<double>();
  s.comm_time_modeled = r.get<double>();
  s.gpu_time_modeled = r.get<double>();
  s.wall_seconds = r.get<double>();
  s.channels_alive = r.get<std::int64_t>();
  s.conv_layers = r.get<std::int64_t>();
  s.reconfigured = r.get<std::uint8_t>() != 0;
  return s;
}

void put_result(ckpt::ByteWriter& w, const TrainResult& res) {
  w.put<double>(res.final_test_acc);
  w.put<double>(res.total_train_flops);
  w.put<double>(res.total_bn_traffic);
  w.put<double>(res.total_comm_bytes);
  w.put<double>(res.total_gpu_time_modeled);
  w.put<double>(res.total_wall_seconds);
  w.put<double>(res.final_inference_flops);
  w.put<std::int64_t>(res.layers_removed);
  w.put<std::int64_t>(res.final_channels);
  w.put<float>(res.lambda);
  w.put<std::uint64_t>(res.epochs.size());
  for (const EpochStats& s : res.epochs) put_epoch_stats(w, s);
}

TrainResult get_result(ckpt::ByteReader& r) {
  TrainResult res;
  res.final_test_acc = r.get<double>();
  res.total_train_flops = r.get<double>();
  res.total_bn_traffic = r.get<double>();
  res.total_comm_bytes = r.get<double>();
  res.total_gpu_time_modeled = r.get<double>();
  res.total_wall_seconds = r.get<double>();
  res.final_inference_flops = r.get<double>();
  res.layers_removed = r.get<std::int64_t>();
  res.final_channels = r.get<std::int64_t>();
  res.lambda = r.get<float>();
  const auto n = r.get<std::uint64_t>();
  res.epochs.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) res.epochs.push_back(get_epoch_stats(r));
  return res;
}

// The manifest's config dump: the fields that shape the run's trajectory
// (not an exhaustive TrainConfig round-trip — the JSONL records are for
// humans and plotting scripts, the checkpoint is the machine state).
telemetry::Json config_json(const TrainConfig& cfg) {
  telemetry::Json j = telemetry::Json::object();
  j["policy"] = telemetry::Json(to_string(cfg.policy));
  j["strategy"] = telemetry::Json(cfg.strategy);
  telemetry::Json params = telemetry::Json::object();
  for (const auto& [key, value] : cfg.strategy_params) {
    params[key] = telemetry::Json(value);
  }
  j["strategy_params"] = params;
  j["codec"] = telemetry::Json(cfg.codec);
  telemetry::Json cparams = telemetry::Json::object();
  for (const auto& [key, value] : cfg.codec_params) {
    cparams[key] = telemetry::Json(value);
  }
  j["codec_params"] = cparams;
  j["epochs"] = telemetry::Json(cfg.epochs);
  j["batch_size"] = telemetry::Json(cfg.batch_size);
  j["base_lr"] = telemetry::Json(static_cast<double>(cfg.base_lr));
  j["momentum"] = telemetry::Json(static_cast<double>(cfg.momentum));
  j["weight_decay"] = telemetry::Json(static_cast<double>(cfg.weight_decay));
  j["lasso_ratio"] = telemetry::Json(static_cast<double>(cfg.lasso_ratio));
  j["lasso_boost"] = telemetry::Json(static_cast<double>(cfg.lasso_boost));
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

// Round-trips a float through text exactly (9 significant digits), for
// mirroring legacy config fields into strategy parameter strings.
std::string float_param(float v) {
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
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
  if (!(lasso_ratio > 0.f) || !(lasso_ratio < 1.f)) {
    fail("lasso_ratio must lie in (0, 1) (got " + std::to_string(lasso_ratio) +
         ")");
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
    robust::validate_training_faults(fault_spec, static_cast<int>(replicas),
                                     !checkpoint_dir.empty());
  } catch (const std::invalid_argument& e) {
    fail(std::string("fault_spec: ") + e.what());
  }
  if (sdc_check_interval < 0) {
    fail("sdc_check_interval must be >= 0 (got " +
         std::to_string(sdc_check_interval) + ")");
  }
  if (keep_checkpoints < 0) {
    fail("keep_checkpoints must be >= 0 (got " +
         std::to_string(keep_checkpoints) + ")");
  }
  // Strategy: the name must be registered and the parameters must resolve
  // (unknown keys, unparsable values, and legacy-field contradictions all
  // fail here rather than mid-training).
  try {
    (void)prune::StrategyRegistry::global().create(strategy,
                                                   resolved_strategy_params());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(e.what()).rfind("TrainConfig:", 0) ==
                                        0
                                    ? e.what()
                                    : "TrainConfig: " + std::string(e.what()));
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
  if (replicas > 1) {
    if (strategy == "group_lasso" &&
        !prune::strategy_param_bool(resolved_strategy_params(), "proximal")) {
      fail("replicas > 1 requires proximal_update (the elastic cluster "
           "applies group lasso as a per-replica proximal hook)");
    }
    if (!(min_live_fraction > 0.0 && min_live_fraction <= 1.0)) {
      fail("min_live_fraction must lie in (0, 1] (got " +
           std::to_string(min_live_fraction) + ")");
    }
    if (suspect_threshold < 1) {
      fail("suspect_threshold must be >= 1 (got " +
           std::to_string(suspect_threshold) + ")");
    }
  }
}

std::map<std::string, std::string> TrainConfig::resolved_strategy_params()
    const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("TrainConfig: " + what);
  };
  std::map<std::string, std::string> p = strategy_params;
  const TrainConfig defaults;
  if (strategy == "group_lasso") {
    // Back-compat: the legacy lasso fields flow in as defaults. When a
    // legacy field was explicitly moved off its default AND the parameter
    // is also set, the two must agree — silently preferring either side
    // would make old and new spellings diverge.
    const auto contradiction = [&](const char* legacy_name,
                                   const std::string& legacy_value,
                                   const char* key, const std::string& given) {
      fail(std::string(legacy_name) + "=" + legacy_value +
           " contradicts strategy_params[\"" + key + "\"]=" + given +
           " — set only one (the " + legacy_name +
           " field is the deprecated spelling)");
    };
    const auto mirror_float = [&](const char* key, float legacy,
                                  float default_value,
                                  const char* legacy_name) {
      auto it = p.find(key);
      if (it == p.end()) {
        p[key] = float_param(legacy);
        return;
      }
      if (legacy == default_value) return;  // only the param was set
      float given = 0.f;
      try {
        given = std::stof(it->second);
      } catch (const std::exception&) {
        return;  // the registry's create() reports the parse error
      }
      if (given != legacy) {
        contradiction(legacy_name, float_param(legacy), key, it->second);
      }
    };
    const auto mirror_bool = [&](const char* key, bool legacy,
                                 bool default_value, const char* legacy_name) {
      auto it = p.find(key);
      if (it == p.end()) {
        p[key] = legacy ? "true" : "false";
        return;
      }
      if (legacy == default_value) return;
      const bool given =
          it->second == "true" || it->second == "1" || it->second == "yes";
      if (given != legacy) {
        contradiction(legacy_name, legacy ? "true" : "false", key, it->second);
      }
    };
    mirror_float("ratio", lasso_ratio, defaults.lasso_ratio, "lasso_ratio");
    mirror_float("boost", lasso_boost, defaults.lasso_boost, "lasso_boost");
    mirror_bool("proximal", proximal_update, defaults.proximal_update,
                "proximal_update");
    mirror_bool("size_normalized", size_normalized_penalty,
                defaults.size_normalized_penalty, "size_normalized_penalty");
  } else {
    // The legacy lasso knobs mean nothing to other strategies; letting
    // them sit silently set is exactly the contradictory-combination trap
    // the deprecation errors exist for.
    const auto reject = [&](const char* legacy_name, bool changed) {
      if (changed) {
        fail(std::string(legacy_name) +
             " is group-lasso-specific and is not read by strategy \"" +
             strategy + "\" — clear it (use strategy_params for \"" + strategy +
             "\"'s own knobs)");
      }
    };
    reject("lasso_ratio", lasso_ratio != defaults.lasso_ratio);
    reject("lasso_boost", lasso_boost != defaults.lasso_boost);
    reject("size_normalized_penalty",
           size_normalized_penalty != defaults.size_normalized_penalty);
  }
  return p;
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
  strategy_ = prune::StrategyRegistry::global().create(
      cfg_.strategy, cfg_.resolved_strategy_params());
  // Like the strategy, the codec exists before any resume load so
  // checkpointed codec state (error-feedback residuals, live-row masks)
  // deserializes into the object the cluster will actually use.
  if (cfg_.replicas > 1) {
    codec_ = dist::CodecRegistry::global().create(cfg_.codec, cfg_.codec_params);
  }
  ctx_ = std::make_unique<exec::ExecContext>(static_cast<int>(cfg_.num_threads));
  fault_ = robust::FaultInjector::from_string(cfg_.fault_spec, cfg_.fault_seed);
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
  }
  if (!cfg_.resume_from.empty()) load_checkpoint_file(cfg_.resume_from);
  if (cfg_.record_sparsity && !monitor_) {
    monitor_ = std::make_unique<prune::SparsityMonitor>(net);
  }
  if (cfg_.replicas > 1) rebuild_cluster();
}

void PruneTrainer::rebuild_cluster() {
  // Carry the injector's fire-state across the rebuild so already-consumed
  // faults don't re-arm; the rebuild itself gives every replica a fresh
  // HEALTHY record ("the failed node was replaced at job restart").
  robust::FaultInjector injector =
      cluster_ ? cluster_->take_fault_injector()
               : robust::FaultInjector::from_string(cfg_.fault_spec,
                                                    cfg_.fault_seed);
  ckpt::Checkpoint image = ckpt::Checkpoint::capture(*net_);
  std::vector<graph::Network> replicas;
  replicas.reserve(static_cast<std::size_t>(cfg_.replicas));
  for (std::int64_t r = 0; r < cfg_.replicas; ++r) {
    replicas.push_back(image.restore_network());
  }
  cost::CommSpec comm = cfg_.comm;
  comm.gpus = static_cast<int>(cfg_.replicas);
  dist::MembershipConfig membership;
  membership.suspect_threshold = static_cast<int>(cfg_.suspect_threshold);
  membership.min_live_fraction = cfg_.min_live_fraction;
  membership.allow_rejoin = cfg_.allow_rejoin;
  cluster_ = std::make_unique<dist::ElasticCluster>(std::move(replicas), comm,
                                                    membership);
  // Share (not copy) the trainer-owned codec: set_codec re-binds it to the
  // rebuilt replica topology, and shape-compatible residual state — loaded
  // from a checkpoint or carried across a rollback — survives the bind.
  if (codec_) cluster_->set_codec(codec_);
  cluster_->set_fault_injector(std::move(injector));
  cluster_fault_fires_seen_ = cluster_->fault_injector().total_fires();
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
  if (src < 0) return;  // below quorum; the step already threw
  graph::Network& rep = cluster_->replica(src);
  std::vector<nn::StateEntry> from = rep.state();
  std::vector<nn::StateEntry> to = net_->state();
  bool copied = from.size() == to.size();
  if (copied) {
    for (std::size_t i = 0; i < from.size(); ++i) {
      if (from[i].name != to[i].name ||
          from[i].tensor->numel() != to[i].tensor->numel()) {
        copied = false;
        break;
      }
      std::copy(from[i].tensor->data(),
                from[i].tensor->data() + from[i].tensor->numel(),
                to[i].tensor->data());
    }
  }
  if (!copied) {
    // Topology drifted (should not happen — surgery is applied to both
    // sides in lockstep); rebuild the reference model outright.
    *net_ = ckpt::Checkpoint::capture(rep).restore_network();
    if (recorder_) net_->set_profiling(true);
    ctx_->rebuild_workspace();
  }
}

void PruneTrainer::reconfigure_cluster_replicas(float threshold) {
  if (!cluster_) return;
  for (int r = 0; r < cluster_->size(); ++r) {
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
  if (codec_) cluster_->codec().bind(*net_, cluster_->size());
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
  if (cluster_) {
    train_epoch_dist(stats, lambda, lr, sparsify);
    return;
  }
  telemetry::ScopedTimer span("sgd");
  optim::SGD opt(lr, cfg_.momentum, cfg_.weight_decay);
  nn::SoftmaxCrossEntropy loss;
  prune::StepInfo info;
  info.epoch = epoch_counter_;
  info.lr = lr;
  info.lambda = lambda;
  info.sparsify = sparsify;
  // The topology is fixed within an epoch (reconfiguration happens only at
  // epoch boundaries), so the named parameter view is built once here
  // rather than per iteration.
  const std::vector<nn::NamedParam> named = nn::group_params(net_->state());
  loader_.begin_epoch();
  double loss_sum = 0;
  std::int64_t correct = 0, samples = 0, iteration = 0;
  while (loader_.has_next()) {
    data::Batch batch = loader_.next(batch_size_);
    Tensor out = net_->forward(*ctx_, batch.images, true);
    const double l = loss.forward(out, batch.labels);
    loss_sum += l * static_cast<double>(batch.size());
    correct += loss.correct();
    samples += batch.size();
    net_->zero_grad();
    net_->backward(*ctx_, loss.backward());
    if (fault_.armed() &&
        fault_.corrupt_gradients(*net_, epoch_counter_, iteration)) {
      ++report_.faults_injected;
    }
    strategy_->accumulate_gradients(*net_, info);
    opt.step(named);
    strategy_->post_step_update(*net_, info);
    strategy_->post_step(*net_, info);
    // SDC lands after the update + hooks so nothing overwrites the flipped
    // bit (single device has no vote to convict it — the digest below
    // records it for offline comparison, and tests read it directly).
    if (fault_.armed() && fault_.corrupt_state(*net_, iteration)) {
      ++report_.faults_injected;
    }
    ++iteration;
    if (integrity_ && integrity_->due(iteration)) {
      const std::vector<prune::StrategyStateItem> sstate = strategy_->state();
      const robust::StateDigest digest =
          robust::compute_state_digest(*net_, *ctx_, &sstate);
      if (telemetry::enabled()) {
        telemetry::count("integrity/checks");
        telemetry::gauge("integrity/state_crc",
                         static_cast<double>(digest.state));
      }
    }
  }
  stats.train_loss = loss_sum / static_cast<double>(samples);
  stats.train_acc = static_cast<double>(correct) / static_cast<double>(samples);
  stats.lasso_loss = strategy_->regularization_loss(*net_);
}

void PruneTrainer::train_epoch_dist(EpochStats& stats, float lambda, float lr,
                                    bool sparsify) {
  telemetry::ScopedTimer span("sgd");
  optim::SGD opt(lr, cfg_.momentum, cfg_.weight_decay);
  prune::StepInfo info;
  info.epoch = epoch_counter_;
  info.lr = lr;
  info.lambda = lambda;
  info.sparsify = sparsify;
  // Per-replica hooks run after each replica's optimizer step, in replica
  // order on the stepping thread. Strategy *state* must advance exactly
  // once per optimizer step (replicas hold bit-identical weights after the
  // all-reduce), so post_step_update fires only for the first participant;
  // the weight-mutating post_step runs for every replica so they stay
  // bit-identical. The strategy reads each replica's Network fresh — a
  // rejoin may replace a replica's Network mid-epoch, and a cached view
  // would dangle.
  prune::Strategy* strat = strategy_.get();
  dist::ElasticCluster::PostUpdateHook hook =
      [strat, info](graph::Network& net, bool first) {
        if (first) strat->post_step_update(net, info);
        strat->post_step(net, info);
      };

  loader_.begin_epoch();
  double loss_sum = 0;
  std::int64_t correct = 0, samples = 0;
  try {
    while (loader_.has_next()) {
      data::Batch batch = loader_.next(batch_size_);
      const dist::StepResult r = cluster_->step(*ctx_, batch, opt, hook);
      loss_sum += r.loss * static_cast<double>(r.processed);
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
    // divergence propagates as-is. Either way the epoch's end-of-loop
    // accounting is skipped, so credit injected fires here.
    account_cluster_fault_fires();
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
  account_cluster_fault_fires();

  // Everything downstream of the epoch (health checks, evaluation, cost
  // models, checkpoints) reads *net_; bring it up to date.
  sync_net_from_cluster();
  stats.lasso_loss = strategy_->regularization_loss(*net_);
}

void PruneTrainer::account_cluster_fault_fires() {
  const std::int64_t fires = cluster_->fault_injector().total_fires();
  report_.faults_injected += fires - cluster_fault_fires_seen_;
  cluster_fault_fires_seen_ = fires;
}

void PruneTrainer::run_integrity_check() {
  std::vector<robust::ReplicaView> views;
  for (int r : cluster_->membership().participants()) {
    views.push_back({r, &cluster_->replica(r)});
  }
  const std::vector<prune::StrategyStateItem> sstate = strategy_->state();
  // Codec residual/mask state steers what every future exchange averages,
  // so it is digested alongside the strategy state. It is one object
  // shared by the whole cluster — every view digests the same bytes — so
  // including it can never split an honest vote.
  const std::vector<prune::StrategyStateItem> cstate =
      codec_ && codec_->stateful() ? codec_->state()
                                   : std::vector<prune::StrategyStateItem>{};
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
    // This throw aborts the epoch before its end-of-epoch accounting, so
    // credit the injected fires that caused the split first.
    account_cluster_fault_fires();
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
                             float& lambda) {
  // Resume bookkeeping: phases completed before the checkpoint are skipped
  // wholesale; the checkpointed phase re-enters at its first unfinished
  // epoch. The restored model/optimizer/RNG state makes the remaining
  // epochs bitwise-identical to an uninterrupted run.
  const std::int64_t phase = phase_index_;
  std::int64_t start = 0;
  if (resuming_) {
    if (phase < resume_phase_) {
      ++phase_index_;
      return;
    }
    if (phase == resume_phase_) start = resume_epoch_;
  }

  optim::MultiStepLR schedule(cfg_.lr_milestones, cfg_.lr_gamma);
  DynamicBatchAdjuster adjuster(cfg_.dynamic_batch);

  for (std::int64_t e = start; e < spec.epochs; ++e) {
    Timer wall;
    telemetry::ScopedTimer epoch_span("epoch");
    EpochStats stats;
    stats.epoch = epoch_counter_;
    telemetry::ReconfigRecord reconfig_rec;

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
    if (spec.sparsify && lambda < 0.f && strategy_->wants_lambda_calibration()) {
      loader_.begin_epoch();
      data::Batch probe = loader_.next(std::min<std::int64_t>(batch_size_, 32));
      nn::SoftmaxCrossEntropy loss;
      Tensor out = net_->forward(*ctx_, probe.images, false);
      const double class_loss = loss.forward(out, probe.labels);
      lambda = strategy_->calibrate(class_loss,
                                    strategy_->regularization_loss(*net_));
      result.lambda = lambda;
      if (cfg_.verbose) {
        std::ostringstream os;
        os << to_string(cfg_.policy) << ": calibrated lambda=" << lambda;
        log_info(os.str());
      }
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
      const robust::HealthEvent* fatal = robust::HealthMonitor::first_fatal(events);
      if (fatal != nullptr && cfg_.max_rollbacks > 0) {
        throw robust::FatalHealthError(*fatal);
      }
    }

    // Prune + reconfigure at epoch boundaries, on the strategy's cadence
    // (the default implementation reproduces the paper's periodic /
    // one-shot schedule). After a rollback with skip_offending_reconfig,
    // reconfigurations in the replayed window up to the fault epoch are
    // suppressed.
    const bool suppressed = epoch_counter_ <= skip_reconfig_until_;
    const prune::ReconfigDecision decision =
        strategy_->propose_reconfigure(einfo);
    if (decision.reconfigure && !suppressed) {
      if (health_) {
        const std::vector<robust::HealthEvent> events =
            health_->check_prune(epoch_counter_, *net_, decision.threshold);
        for (const robust::HealthEvent& ev : events) {
          report_.events.push_back(ev);
          log_warn("guardian: " + ev.describe());
        }
      }
      prune::Reconfigurer reconfigurer(*net_, decision.threshold,
                                       cfg_.prune_min_channels);
      prune::ReconfigStats rstats;
      {
        telemetry::ScopedTimer reconfig_span("reconfigure");
        rstats = reconfigurer.reconfigure();
      }
      stats.reconfigured = rstats.changed;
      result.layers_removed += rstats.convs_removed;
      reconfig_rec.happened = true;
      reconfig_rec.channels_before = rstats.channels_before;
      reconfig_rec.channels_after = rstats.channels_after;
      reconfig_rec.convs_removed = rstats.convs_removed;
      reconfig_rec.blocks_removed = rstats.blocks_removed;
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
      reconfigure_cluster_replicas(decision.threshold);
      if (rstats.changed) {
        // Surgery may have dropped channels the strategy tracks by index;
        // give it a chance to rebuild (masks, thresholds, saliency).
        strategy_->on_reconfigured(*net_);
        // The arena's buffers are sized for the pre-surgery shapes; drop
        // them so capacity — and the high-water statistic — re-measures the
        // pruned hot loop. No leases are live at an epoch boundary.
        ctx_->rebuild_workspace();
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
    cost::MemoryModel mem(*net_, input_shape_, ctx_.get());
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
    if (!cluster_) {
      // The elastic path accumulated per-step comm cost at the live ring
      // size already; the static model would overwrite it with full-ring
      // numbers.
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
    if (recorder_) emit_epoch_record(stats, reconfig_rec);
    ++epoch_counter_;

    if (!cfg_.checkpoint_dir.empty() &&
        epoch_counter_ % cfg_.checkpoint_interval == 0) {
      save_checkpoint(result, phase, e + 1, lambda);
    }
  }
  ++phase_index_;
}

void PruneTrainer::emit_epoch_record(const EpochStats& stats,
                                     const telemetry::ReconfigRecord& reconfig) {
  telemetry::EpochRecord rec;
  rec.strategy = cfg_.strategy;
  rec.epoch = stats.epoch;
  rec.batch_size = stats.batch_size;
  rec.lr = stats.lr;
  rec.train_loss = stats.train_loss;
  rec.train_acc = stats.train_acc;
  rec.test_acc = stats.test_acc;
  rec.lasso_loss = stats.lasso_loss;
  rec.flops_per_sample_train = stats.flops_per_sample_train;
  rec.flops_per_sample_inf = stats.flops_per_sample_inf;
  rec.epoch_train_flops = stats.epoch_train_flops;
  rec.epoch_bn_traffic = stats.epoch_bn_traffic;
  rec.memory_bytes = stats.memory_bytes;
  rec.comm_bytes_per_gpu = stats.comm_bytes_per_gpu;
  rec.comm_time_modeled = stats.comm_time_modeled;
  rec.gpu_time_modeled = stats.gpu_time_modeled;
  rec.wall_seconds = stats.wall_seconds;
  rec.channels_alive = stats.channels_alive;
  rec.conv_layers = stats.conv_layers;
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
  const exec::WorkspaceStats ws = ctx_->workspace().stats();
  telemetry::gauge("exec/threads", static_cast<double>(ctx_->num_threads()));
  telemetry::gauge("exec/tasks_run",
                   static_cast<double>(ctx_->pool().tasks_run()));
  telemetry::gauge("exec/workspace_reserved_bytes",
                   static_cast<double>(ws.bytes_reserved));
  telemetry::gauge("exec/workspace_high_water_bytes",
                   static_cast<double>(ws.high_water_bytes));
  telemetry::gauge("exec/workspace_allocations",
                   static_cast<double>(ws.heap_allocations));
  telemetry::gauge("exec/workspace_leases", static_cast<double>(ws.leases));

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
  rec.spans = reg.spans();
  recorder_->append(rec);
  // Per-layer times are per-epoch quantities; the registry's counters and
  // spans stay cumulative across the run.
  net_->reset_profile();
}

void PruneTrainer::save_checkpoint(const TrainResult& result, std::int64_t phase,
                                   std::int64_t phase_epochs_done,
                                   float lambda) {
  telemetry::ScopedTimer span("checkpoint");
  namespace fs = std::filesystem;
  fs::create_directories(cfg_.checkpoint_dir);

  ckpt::Checkpoint ck = ckpt::Checkpoint::capture(*net_);

  ckpt::ByteWriter w;
  w.put<std::int64_t>(phase);
  w.put<std::int64_t>(phase_epochs_done);
  w.put<std::int64_t>(epoch_counter_);
  w.put<std::int64_t>(batch_size_);
  w.put<float>(lambda);
  w.put<float>(lr_scale_);
  w.put<double>(last_test_acc_);
  const RngState rng = loader_.rng_state();
  w.put<std::uint64_t>(rng.s0);
  w.put<std::uint64_t>(rng.s1);
  w.put<double>(rng.cached_normal);
  w.put<std::uint8_t>(rng.has_cached_normal ? 1 : 0);
  put_result(w, result);
  ck.set_section("trainer", w.take());

  // Strategy state rides as its own opaque section so rollback/resume
  // replays the sparsifier bitwise (masks, trainable thresholds, saliency
  // EWMAs). The strategy name is stored for a mismatch check on load.
  {
    ckpt::ByteWriter sw;
    sw.put_string(cfg_.strategy);
    const std::vector<prune::StrategyStateItem> items = strategy_->state();
    sw.put<std::uint64_t>(items.size());
    for (const prune::StrategyStateItem& item : items) {
      sw.put_string(item.name);
      sw.put_vector(item.f32);
      sw.put_vector(item.i64);
    }
    ck.set_section("strategy", sw.take());
  }

  // Codec state rides the same way: error-feedback residuals and live-row
  // masks must survive resume/rollback bitwise, or the replayed exchanges
  // diverge from the uninterrupted run. The codec name is stored for a
  // mismatch check on load. Written whenever a codec exists (even when
  // currently stateless) so the load side can verify the name.
  if (codec_) {
    ckpt::ByteWriter cw;
    cw.put_string(cfg_.codec);
    const std::vector<dist::CodecStateItem> items =
        codec_->stateful() ? codec_->state()
                           : std::vector<dist::CodecStateItem>{};
    cw.put<std::uint64_t>(items.size());
    for (const dist::CodecStateItem& item : items) {
      cw.put_string(item.name);
      cw.put_vector(item.f32);
      cw.put_vector(item.i64);
    }
    ck.set_section("codec", cw.take());
  }

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
  // torn-write / bit-rot failure mode find_last_good_checkpoint must
  // survive by falling back to an older intact checkpoint.
  if (fault_.armed() &&
      fault_.corrupt_checkpoint_files({numbered, latest}, epoch_counter_)) {
    ++report_.faults_injected;
  }
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
  if (cluster_) cluster_->set_resync_checkpoint(latest);
}

void PruneTrainer::load_checkpoint_file(const std::string& path) {
  ckpt::Checkpoint ck = ckpt::Checkpoint::load(path);
  *net_ = ck.restore_network();
  // The restored network starts with profiling off; keep instrumenting
  // when this run records telemetry (resume and rollback paths).
  if (recorder_) net_->set_profiling(true);
  // The restored model's shapes may differ from what the arena was sized
  // for (the checkpoint is post-reconfiguration); re-measure from scratch.
  ctx_->rebuild_workspace();

  const std::vector<std::uint8_t>* section = ck.section("trainer");
  if (section == nullptr) {
    throw std::runtime_error("checkpoint " + path +
                             " has no trainer section (not written by "
                             "PruneTrainer?)");
  }
  ckpt::ByteReader r(*section);
  resume_phase_ = r.get<std::int64_t>();
  resume_epoch_ = r.get<std::int64_t>();
  epoch_counter_ = r.get<std::int64_t>();
  batch_size_ = r.get<std::int64_t>();
  resume_lambda_ = r.get<float>();
  lr_scale_ = r.get<float>();
  last_test_acc_ = r.get<double>();
  RngState rng;
  rng.s0 = r.get<std::uint64_t>();
  rng.s1 = r.get<std::uint64_t>();
  rng.cached_normal = r.get<double>();
  rng.has_cached_normal = r.get<std::uint8_t>() != 0;
  loader_.set_rng_state(rng);
  resume_result_ = get_result(r);
  resuming_ = true;

  // Strategy state: absent in pre-strategy checkpoints (the sparsifier then
  // starts fresh, which is exactly what those checkpoints' runs did).
  if (const std::vector<std::uint8_t>* strat = ck.section("strategy")) {
    ckpt::ByteReader sr(*strat);
    const std::string saved_name = sr.get_string();
    if (saved_name != cfg_.strategy) {
      throw std::runtime_error("checkpoint " + path +
                               " was written by strategy '" + saved_name +
                               "' but this run uses '" + cfg_.strategy + "'");
    }
    const auto n_items = sr.get<std::uint64_t>();
    std::vector<prune::StrategyStateItem> items;
    for (std::uint64_t i = 0; i < n_items; ++i) {
      prune::StrategyStateItem item;
      item.name = sr.get_string();
      item.f32 = sr.get_vector<float>();
      item.i64 = sr.get_vector<std::int64_t>();
      items.push_back(std::move(item));
    }
    strategy_->load_state(items);
  }

  // Codec state: absent in pre-codec checkpoints (and in single-device
  // runs, which have no exchange to compress). A name mismatch fails
  // loudly — silently dropping another codec's residuals would make the
  // resumed run diverge from the uninterrupted one without a trace.
  if (const std::vector<std::uint8_t>* csec = ck.section("codec")) {
    ckpt::ByteReader cr(*csec);
    const std::string saved_codec = cr.get_string();
    if (codec_ && saved_codec != codec_->name()) {
      throw std::runtime_error("checkpoint " + path +
                               " was written by codec '" + saved_codec +
                               "' but this run uses '" + codec_->name() + "'");
    }
    const auto n_items = cr.get<std::uint64_t>();
    std::vector<dist::CodecStateItem> items;
    for (std::uint64_t i = 0; i < n_items; ++i) {
      dist::CodecStateItem item;
      item.name = cr.get_string();
      item.f32 = cr.get_vector<float>();
      item.i64 = cr.get_vector<std::int64_t>();
      items.push_back(std::move(item));
    }
    if (codec_ && !items.empty()) codec_->load_state(items);
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

TrainResult PruneTrainer::run() {
  telemetry::ScopedTimer run_span("train");
  try {
    if (cfg_.max_rollbacks <= 0) return run_attempt();

    robust::RecoveryConfig rc;
    rc.max_rollbacks = cfg_.max_rollbacks;
    rc.lr_cut = cfg_.rollback_lr_cut;
    rc.backoff_base = cfg_.rollback_backoff;
    rc.backoff_cap = cfg_.rollback_backoff_cap;
    rc.skip_offending_reconfig = cfg_.rollback_skip_reconfig;
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
              report_);
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
                                  report_);
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
                                  report_);
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
  // shuffle-RNG state, counters, and partial statistics, and sets the
  // resume_* bookkeeping — the retry re-enters the schedule exactly as a
  // crash-resume would, just in-process.
  load_checkpoint_file(path);
  // The retry runs on a fresh cluster built from the restored model; the
  // injector's fire-state survives so consumed faults stay consumed.
  if (cluster_) rebuild_cluster();
  recovery_lr_scale_ = decision.lr_scale;
  skip_reconfig_until_ = decision.skip_reconfig ? cause.epoch : -1;
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
    ck.set_section("guardian", robust::serialize_report(report_));
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
  save_checkpoint(result, resuming_ ? resume_phase_ : 0,
                  resuming_ ? resume_epoch_ : 0, lambda);
  initial_ckpt_saved_ = true;
}

TrainResult PruneTrainer::run_attempt() {
  TrainResult result;
  float lambda = -1.f;  // calibrated lazily at the first regularized epoch
  phase_index_ = 0;     // each attempt traverses the schedule from the top

  // The number of run_phase calls preceding the fine-tune phase; used to
  // tell whether a checkpoint was taken after the main phases (and thus
  // after the post-phase reconfiguration passes, which must not re-run on
  // a model that has trained past them).
  const std::int64_t main_phases = cfg_.policy == PrunePolicy::kSSL ? 2 : 1;

  if (resuming_) {
    // Continue from the partial statistics and calibrated lambda the
    // checkpoint carried; the epochs that re-run append to resume_result_.
    result = resume_result_;
    lambda = resume_lambda_;
  }

  switch (cfg_.policy) {
    case PrunePolicy::kDense:
      ensure_initial_checkpoint(result, lambda);
      run_phase(result, {cfg_.epochs, false, false, -1}, lambda);
      break;
    case PrunePolicy::kPruneTrain:
      ensure_initial_checkpoint(result, lambda);
      run_phase(result, {cfg_.epochs, true, true, -1}, lambda);
      break;
    case PrunePolicy::kSSL: {
      // Calibrate lambda from the *random-init* losses (Eq. 3), exactly as
      // PruneTrain does — the paper applies its calibration mechanism to
      // SSL too. Calibrating after dense pre-training would be degenerate:
      // the converged classification loss would make lambda ~0. A resumed
      // run restores the calibrated value instead (the probe's RNG draws
      // are already baked into the restored shuffle state).
      if (!resuming_) {
        loader_.begin_epoch();
        data::Batch probe = loader_.next(std::min<std::int64_t>(batch_size_, 32));
        nn::SoftmaxCrossEntropy loss;
        Tensor out = net_->forward(*ctx_, probe.images, false);
        const double class_loss = loss.forward(out, probe.labels);
        lambda = strategy_->calibrate(class_loss,
                                      strategy_->regularization_loss(*net_));
        result.lambda = lambda;
        net_->clear_context();
      }
      // The rollback anchor is saved *after* the calibration so the probe's
      // RNG draws and lambda are baked in — re-calibrating from a partially
      // trained model would be degenerate (converged loss => lambda ~ 0).
      ensure_initial_checkpoint(result, lambda);
      // Phase 1: dense pre-training (counts toward training cost).
      run_phase(result, {cfg_.epochs, false, false, -1}, lambda);
      // Phase 2: sparsify on the dense architecture; prune only at the end.
      // Skip the end-of-phase prune when resuming past it (a later-phase
      // checkpoint already reflects it).
      run_phase(result, {cfg_.epochs, true, false, -1}, lambda);
      if (!(resuming_ && resume_phase_ > 1)) {
        prune::Reconfigurer reconfigurer(*net_, cfg_.threshold,
                                         cfg_.prune_min_channels);
        const auto rstats = reconfigurer.reconfigure();
        result.layers_removed += rstats.convs_removed;
        reconfigure_cluster_replicas(cfg_.threshold);
        if (rstats.changed) strategy_->on_reconfigured(*net_);
      }
      break;
    }
    case PrunePolicy::kOneShot:
      ensure_initial_checkpoint(result, lambda);
      run_phase(result, {cfg_.epochs, true, false, cfg_.one_shot_epoch}, lambda);
      break;
  }

  // Final pruning pass so the reported inference model is fully compacted
  // (a no-op if the last reconfiguration already caught everything). A
  // checkpoint taken during fine-tuning postdates this pass, so resuming
  // from one must not repeat it on the fine-tuned weights.
  const bool resumed_past_main = resuming_ && resume_phase_ >= main_phases;
  if (cfg_.policy != PrunePolicy::kDense && cfg_.final_reconfigure &&
      !resumed_past_main) {
    prune::Reconfigurer reconfigurer(*net_, cfg_.threshold,
                                     cfg_.prune_min_channels);
    const auto rstats = reconfigurer.reconfigure();
    result.layers_removed += rstats.convs_removed;
    reconfigure_cluster_replicas(cfg_.threshold);
    if (rstats.changed) strategy_->on_reconfigured(*net_);
  }

  // Optional fine-tuning on the pruned architecture: extra epochs without
  // regularization, at the final decayed learning rate (Sec. 5.1). When
  // resuming into this phase, the restored lr_scale_ already carries the
  // decay multiplier — applying it again would square the decay.
  if (cfg_.fine_tune_epochs > 0 && cfg_.policy != PrunePolicy::kDense) {
    optim::MultiStepLR schedule(cfg_.lr_milestones, cfg_.lr_gamma);
    const float saved_scale = lr_scale_;
    if (!resumed_past_main) {
      lr_scale_ *= static_cast<float>(schedule.multiplier_at(cfg_.epochs));
    }
    float no_lambda = 0.f;
    run_phase(result, {cfg_.fine_tune_epochs, false, false, -1}, no_lambda);
    lr_scale_ = saved_scale;
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
