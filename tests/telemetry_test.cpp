// Telemetry tests: registry semantics (counters/gauges/histograms), the
// near-zero-cost disabled path, hierarchical ScopedTimer spans, JSON and
// JSONL round-trips, per-layer FLOPs from a real profiled forward pass
// matching cost::FlopsModel before and after a reconfiguration, and the
// instrumented trainer's run records (manifest + one line per epoch with a
// monotonically non-increasing cost trajectory and that epoch's own span
// window), and the elastic step's phase spans.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "core/trainer.h"
#include "cost/flops.h"
#include "data/synthetic.h"
#include "dist/elastic.h"
#include "models/builders.h"
#include "nn/conv2d.h"
#include "prune/reconfigure.h"
#include "telemetry/bench_export.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/record.h"
#include "util/fileio.h"

namespace pt::telemetry {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory (pid suffix: test_telemetry and
/// test_telemetry_asan run concurrently under ctest).
fs::path scratch_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("pt_telemetry_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

/// Telemetry state is process-global: every test starts enabled with an
/// empty registry and leaves the process with telemetry off again.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::global().reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    MetricsRegistry::global().reset();
  }
};

TEST_F(TelemetryTest, CountersAccumulateAndGaugesKeepLastValue) {
  count("a/hits");
  count("a/hits", 2.5);
  gauge("a/level", 7);
  gauge("a/level", 3);
  auto& reg = MetricsRegistry::global();
  EXPECT_DOUBLE_EQ(reg.counter("a/hits"), 3.5);
  EXPECT_DOUBLE_EQ(reg.gauge("a/level"), 3);
  EXPECT_DOUBLE_EQ(reg.counter("absent"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge("absent"), 0);
}

TEST_F(TelemetryTest, HistogramBucketsCountsAndStats) {
  auto& reg = MetricsRegistry::global();
  reg.define_histogram("lat", {1.0, 10.0, 100.0});
  for (double v : {0.5, 5.0, 5.0, 50.0, 500.0}) observe("lat", v);
  const auto h = reg.histograms().at("lat");
  ASSERT_EQ(h.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.total, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 560.5);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 500.0);
}

TEST_F(TelemetryTest, UndeclaredHistogramGetsDefaultBuckets) {
  observe("auto", 42.0);
  const auto h = MetricsRegistry::global().histograms().at("auto");
  EXPECT_GT(h.bounds.size(), 0u);
  EXPECT_EQ(h.total, 1u);
}

TEST_F(TelemetryTest, DisabledHelpersRecordNothing) {
  set_enabled(false);
  count("off/c");
  gauge("off/g", 1);
  observe("off/h", 1);
  event("off/e", "never");
  { ScopedTimer t("off/span"); }
  set_enabled(true);
  auto& reg = MetricsRegistry::global();
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.gauges().empty());
  EXPECT_TRUE(reg.histograms().empty());
  EXPECT_TRUE(reg.spans().empty());
  EXPECT_TRUE(reg.events().empty());
}

TEST_F(TelemetryTest, ScopedTimersNestIntoHierarchicalNames) {
  {
    ScopedTimer outer("train");
    {
      ScopedTimer inner("epoch");
      { ScopedTimer leaf("sgd"); }
      { ScopedTimer leaf("sgd"); }
    }
  }
  const auto spans = MetricsRegistry::global().spans();
  ASSERT_TRUE(spans.count("train"));
  ASSERT_TRUE(spans.count("train/epoch"));
  ASSERT_TRUE(spans.count("train/epoch/sgd"));
  EXPECT_EQ(spans.at("train").count, 1u);
  EXPECT_EQ(spans.at("train/epoch/sgd").count, 2u);
  // A parent's accumulated time covers its children.
  EXPECT_GE(spans.at("train").total_seconds,
            spans.at("train/epoch/sgd").total_seconds);
  EXPECT_GE(spans.at("train/epoch/sgd").max_seconds,
            spans.at("train/epoch/sgd").min_seconds);
}

TEST_F(TelemetryTest, EventsCarryMonotoneSequenceNumbers) {
  event("health/nan", "loss went NaN");
  event("recovery/rollback", "attempt 1");
  const auto events = MetricsRegistry::global().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_EQ(events[0].name, "health/nan");
  EXPECT_EQ(events[1].detail, "attempt 1");
  EXPECT_GE(events[1].at_seconds, events[0].at_seconds);
}

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5},"e":9007199254740992.0})";
  const Json j = Json::parse(text);
  const Json j2 = Json::parse(j.dump());
  EXPECT_EQ(j2.at("a").as_int(), 1);
  EXPECT_TRUE(j2.at("b").at(0).as_bool());
  EXPECT_EQ(j2.at("b").at(2).as_string(), "x\n");
  EXPECT_DOUBLE_EQ(j2.at("c").at("d").as_number(), -2.5);
  EXPECT_THROW(Json::parse("{broken"), std::runtime_error);
}

/// `s`'s fields in for_each_field order, as doubles (exact for these values).
template <class S>
std::vector<std::pair<std::string, double>> fields_of(const S& s) {
  std::vector<std::pair<std::string, double>> out;
  for_each_field(s, [&out](const char* name, const auto& v) {
    out.emplace_back(name, static_cast<double>(v));
  });
  return out;
}

EpochRecord sample_record() {
  EpochRecord r;
  // Every stats field distinct and off its default: the i-th is i + 0.5,
  // truncated to i for integers (and true for the flag).
  int i = 0;
  for_each_field(r, [&i](const char*, auto& v) {
    v = static_cast<std::remove_reference_t<decltype(v)>>(++i + 0.5);
  });
  r.reconfig.happened = true;
  r.reconfig.channels_before = 48;
  r.reconfig.channels_after = 42;
  r.reconfig.convs_removed = 1;
  r.reconfig.blocks_removed = 0;
  r.layers.push_back({2, "stem", "conv2d", 1e5, 2e5, 0.5, 0.75, 10, 10});
  r.sparsity.push_back({"stem", 0.875, 0.5});
  r.counters["dist/steps"] = 12;
  r.gauges["prune/channels_alive"] = 42;
  r.spans["train/epoch"] = SpanStats{3, 4.5, 1.0, 2.0};
  return r;
}

/// "name:type ..." of every visited field; the flag's type is u8.
template <class S>
std::string field_signature(const S& s) {
  std::string out;
  for_each_field(s, [&out](const char* name, const auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    const char* kind = std::is_same_v<T, bool>        ? "u"
                       : std::is_floating_point_v<T> ? "f"
                                                     : "i";
    out += std::string(out.empty() ? "" : " ") + name + ":" + kind +
           std::to_string(8 * sizeof(T));
  });
  return out;
}

// This sequence *is* the checkpoint trainer-section format (each field at
// its own width: TrainResult's scalars, the epoch count, then every
// epoch's stats) and the epochs.jsonl key order. Checkpoints and records
// already written depend on it, so fields are only ever appended.
TEST(EpochStatsFields, VisitOrderIsTheCheckpointAndJsonFormat) {
  EXPECT_EQ(field_signature(EpochStats{}),
            "epoch:i64 batch_size:i64 lr:f64 train_loss:f64 train_acc:f64 "
            "test_acc:f64 lasso_loss:f64 flops_per_sample_train:f64 "
            "flops_per_sample_inf:f64 epoch_train_flops:f64 "
            "epoch_bn_traffic:f64 memory_bytes:f64 comm_bytes_per_gpu:f64 "
            "comm_time_modeled:f64 gpu_time_modeled:f64 wall_seconds:f64 "
            "channels_alive:i64 conv_layers:i64 reconfigured:u8");
  EXPECT_EQ(field_signature(core::TrainResult{}),
            "final_test_acc:f64 total_train_flops:f64 total_bn_traffic:f64 "
            "total_comm_bytes:f64 total_gpu_time_modeled:f64 "
            "total_wall_seconds:f64 final_inference_flops:f64 "
            "layers_removed:i64 final_channels:i64 lambda:f32");

  // The record writes the stats between its strategy and reconfig keys.
  std::string expected = "schema schema_version strategy", keys;
  for (const auto& [name, v] : fields_of(EpochStats{})) expected += " " + name;
  expected += " reconfig layers sparsity counters gauges spans";
  const Json j = sample_record().to_json();
  for (const auto& [key, v] : j.items()) keys += " " + key;
  EXPECT_EQ(keys.substr(1), expected);
}

TEST(EpochRecordJson, RoundTripsFieldForField) {
  const EpochRecord r = sample_record();
  const EpochRecord r2 = EpochRecord::from_json(r.to_json());
  EXPECT_EQ(fields_of(r2), fields_of(r));
  EXPECT_TRUE(r2.reconfig.happened);
  EXPECT_EQ(r2.reconfig.channels_before, 48);
  EXPECT_EQ(r2.reconfig.channels_after, 42);
  ASSERT_EQ(r2.layers.size(), 1u);
  EXPECT_EQ(r2.layers[0].node, 2);
  EXPECT_EQ(r2.layers[0].name, "stem");
  EXPECT_DOUBLE_EQ(r2.layers[0].fwd_flops, 1e5);
  EXPECT_EQ(r2.layers[0].fwd_calls, 10u);
  ASSERT_EQ(r2.sparsity.size(), 1u);
  EXPECT_DOUBLE_EQ(r2.sparsity[0].channel_density, 0.875);
  EXPECT_DOUBLE_EQ(r2.counters.at("dist/steps"), 12);
  EXPECT_DOUBLE_EQ(r2.gauges.at("prune/channels_alive"), 42);
  ASSERT_TRUE(r2.spans.count("train/epoch"));
  EXPECT_EQ(r2.spans.at("train/epoch").count, 3u);
  EXPECT_DOUBLE_EQ(r2.spans.at("train/epoch").total_seconds, 4.5);
}

TEST(EpochRecordJson, RejectsFutureSchemaVersion) {
  Json j = sample_record().to_json();
  j["schema_version"] = Json(double(kSchemaVersion + 1));
  EXPECT_THROW(EpochRecord::from_json(j), std::runtime_error);
}

TEST(RunRecorderTest, ManifestAndRecordsRoundTripThroughDisk) {
  const fs::path dir = scratch_dir("recorder");
  RunManifest m;
  m.run_name = "unit";
  m.git = "deadbeef";
  m.created_unix = 1700000000;
  m.seed = 123;
  m.config = Json::object();
  m.config["epochs"] = Json(8.0);
  RunRecorder rec(dir.string(), m);

  EpochRecord r = sample_record();
  rec.append(r);
  r.epoch = 4;
  r.flops_per_sample_inf = 9e5;
  rec.append(r);

  const RunManifest m2 = RunRecorder::read_manifest(dir.string());
  EXPECT_EQ(m2.run_name, "unit");
  EXPECT_EQ(m2.git, "deadbeef");
  EXPECT_EQ(m2.seed, 123u);
  EXPECT_EQ(m2.config.at("epochs").as_int(), 8);

  const auto records = RunRecorder::read_records(dir.string());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].epoch, sample_record().epoch);
  EXPECT_EQ(records[1].epoch, 4);
  EXPECT_DOUBLE_EQ(records[1].flops_per_sample_inf, 9e5);
  fs::remove_all(dir);
}

TEST(RunRecorderTest, TornTailIsSkippedOnRead) {
  const fs::path dir = scratch_dir("torn_read");
  RunRecorder rec(dir.string(), RunManifest{});
  rec.append(sample_record());
  {
    // A crash mid-append leaves an unterminated half line.
    std::ofstream f(dir / "epochs.jsonl", std::ios::app | std::ios::binary);
    f << R"({"schema":"pt-telemetry-epoch","epo)";
  }
  const auto records = RunRecorder::read_records(dir.string());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].epoch, sample_record().epoch);
  {
    // A malformed *complete* line is not a torn append: it still throws.
    std::ofstream f(dir / "epochs.jsonl", std::ios::app | std::ios::binary);
    f << "\n";
  }
  EXPECT_THROW(RunRecorder::read_records(dir.string()), std::runtime_error);
  fs::remove_all(dir);
}

TEST(RunRecorderTest, TornTailIsTruncatedBeforeTheNextAppend) {
  const fs::path dir = scratch_dir("torn_append");
  RunRecorder rec(dir.string(), RunManifest{});
  EpochRecord r = sample_record();
  rec.append(r);
  const std::string first = r.to_json().dump() + "\n";
  {
    std::ofstream f(dir / "epochs.jsonl", std::ios::app | std::ios::binary);
    f << R"({"schema":"pt-telemetry-epoch","epo)";
  }
  r.epoch = 4;
  rec.append(r);  // the resumed run's next epoch
  EXPECT_EQ(read_file_text((dir / "epochs.jsonl").string()),
            first + r.to_json().dump() + "\n");
  fs::remove_all(dir);
}

TEST(RunRecorderTest, ReadRecordsOnEmptyDirectoryIsEmpty) {
  const fs::path dir = scratch_dir("empty");
  EXPECT_TRUE(RunRecorder::read_records(dir.string()).empty());
  fs::remove_all(dir);
}

models::ModelConfig tiny_model() {
  models::ModelConfig cfg;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.classes = 4;
  cfg.width_mult = 0.5f;
  cfg.seed = 21;
  return cfg;
}

/// The tentpole invariant: per-layer FLOPs in the records are the
/// cost::FlopsModel analytical values, and the measured profile comes from
/// real executed passes — before AND after a reconfiguration.
TEST(LayerRecords, MatchAnalyticalFlopsBeforeAndAfterReconfig) {
  exec::ExecContext ctx(1);
  auto net = models::build_resnet_basic(8, tiny_model());
  const Shape input{3, 8, 8};
  net.set_profiling(true);
  Rng rng(7);

  auto run_passes = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
      Tensor y = net.forward(ctx, x, true);
      net.backward(ctx, Tensor::full(y.shape(), 1.f / float(y.shape()[0])));
    }
  };
  auto check_against_model = [&](int expected_calls, double* total_out) {
    const cost::FlopsModel fm(net, input);
    const auto records = collect_layer_records(net, input);
    double total_fwd = 0;
    for (const auto& lr : records) {
      total_fwd += lr.fwd_flops;
      EXPECT_EQ(lr.fwd_calls, std::uint64_t(expected_calls)) << lr.name;
      EXPECT_EQ(lr.bwd_calls, std::uint64_t(expected_calls)) << lr.name;
      EXPECT_GE(lr.fwd_seconds, 0.0);
    }
    EXPECT_DOUBLE_EQ(total_fwd, fm.inference_flops());
    // Every analytical layer appears in the records with identical FLOPs.
    ASSERT_EQ(records.size(), fm.layers().size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].node, fm.layers()[i].node);
      EXPECT_DOUBLE_EQ(records[i].fwd_flops, fm.layers()[i].forward);
      EXPECT_DOUBLE_EQ(records[i].bwd_flops, fm.layers()[i].backward);
    }
    *total_out = total_fwd;
  };

  run_passes(3);
  double dense_flops = 0;
  check_against_model(3, &dense_flops);

  // Force a real reconfiguration: zero every conv, then slice. The
  // min-channels floor keeps the trunk alive; residual paths are removed.
  for (int conv_node : net.nodes_of_type<nn::Conv2d>()) {
    auto& w = net.layer_as<nn::Conv2d>(conv_node).weight().value;
    for (std::int64_t i = 0; i < w.numel(); ++i) w.data()[i] = 0.f;
  }
  prune::Reconfigurer reconf(net, 1e-4f, 1);
  const auto stats = reconf.reconfigure();
  ASSERT_TRUE(stats.changed);
  ASSERT_LT(stats.channels_after, stats.channels_before);

  net.reset_profile();
  run_passes(2);
  double pruned_flops = 0;
  check_against_model(2, &pruned_flops);
  EXPECT_LT(pruned_flops, dense_flops);
}

data::SyntheticSpec tiny_data() {
  data::SyntheticSpec spec;
  spec.name = "tiny";
  spec.classes = 4;
  spec.channels = 3;
  spec.height = 8;
  spec.width = 8;
  spec.train_samples = 96;
  spec.test_samples = 64;
  spec.noise = 0.4f;
  spec.max_shift = 1;
  spec.seed = 5;
  return spec;
}

/// End-to-end: an instrumented PruneTrainer run writes a manifest plus one
/// record per epoch whose cost trajectory is monotone non-increasing and
/// whose per-layer FLOPs sum to the trainer-reported per-sample cost.
TEST(TrainerTelemetry, WritesManifestAndOneRecordPerEpoch) {
  const fs::path dir = scratch_dir("trainer");
  MetricsRegistry::global().reset();
  auto data = data::SyntheticImageDataset(tiny_data());
  auto net = models::build_resnet_basic(8, tiny_model());
  core::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 32;
  cfg.base_lr = 0.05f;
  cfg.reconfig_interval = 2;
  cfg.strategy_params["ratio"] = "0.25";
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.metrics_dir = dir.string();
  cfg.run_name = "unit-train";
  core::PruneTrainer trainer(net, data, cfg);
  const auto result = trainer.run();
  set_enabled(false);

  const RunManifest m = RunRecorder::read_manifest(dir.string());
  EXPECT_EQ(m.run_name, "unit-train");
  EXPECT_EQ(m.config.at("epochs").as_int(), 4);
  // The manifest records the resolved strategy parameters, defaults
  // included, not just the keys the config set.
  const Json& params = m.config.at("strategy_params");
  EXPECT_EQ(params.at("ratio").as_string(), "0.25");
  EXPECT_EQ(params.at("boost").as_string(), "1");

  const auto records = RunRecorder::read_records(dir.string());
  ASSERT_EQ(records.size(), std::size_t(cfg.epochs));
  for (std::size_t e = 0; e < records.size(); ++e) {
    const auto& r = records[e];
    EXPECT_EQ(r.epoch, std::int64_t(e));
    // The record is the trainer's own EpochStats, every field.
    EXPECT_EQ(fields_of(r), fields_of(result.epochs[e]));
    // Per-layer analytical FLOPs sum to the reported per-sample cost.
    double total_fwd = 0;
    for (const auto& lr : r.layers) total_fwd += lr.fwd_flops;
    EXPECT_NEAR(total_fwd, r.flops_per_sample_inf,
                1e-6 * r.flops_per_sample_inf);
    EXPECT_FALSE(r.sparsity.empty());
    if (e > 0) {
      EXPECT_LE(records[e].flops_per_sample_inf,
                records[e - 1].flops_per_sample_inf * (1.0 + 1e-9));
      EXPECT_LE(records[e].memory_bytes,
                records[e - 1].memory_bytes * (1.0 + 1e-9));
    }
  }
  // The trainer's spans made it into the final record, and every
  // reconfiguration occurrence was counted.
  const auto& last = records.back();
  EXPECT_TRUE(last.spans.count("train/epoch/sgd"));
  std::int64_t reconfigs = 0;
  for (const auto& r : records) reconfigs += r.reconfig.happened ? 1 : 0;
  ASSERT_GT(reconfigs, 0);  // interval 2 over 4 epochs must fire
  EXPECT_DOUBLE_EQ(last.counters.at("prune/reconfigurations"),
                   double(reconfigs));

  // bench_export over the same directory: totals and sanity flags.
  const Json summary = bench_summary(dir.string(), "unit");
  EXPECT_EQ(summary.at("name").as_string(), "unit");
  EXPECT_EQ(summary.at("epochs").as_int(), cfg.epochs);
  EXPECT_TRUE(summary.at("flops_monotone_nonincreasing").as_bool());
  EXPECT_TRUE(summary.at("memory_monotone_nonincreasing").as_bool());
  const fs::path out = dir / "BENCH_unit.json";
  bench_export(dir.string(), "unit", out.string());
  EXPECT_TRUE(fs::exists(out));
  fs::remove_all(dir);
}

/// Codec parameters are recorded resolved like the strategy's: a twobit run
/// lists threshold_scale even when the config leaves it at its default.
/// The trainer writes the manifest at construction.
TEST(TrainerTelemetry, ManifestRecordsResolvedCodecParams) {
  const fs::path dir = scratch_dir("codec_manifest");
  auto data = data::SyntheticImageDataset(tiny_data());
  auto net = models::build_resnet_basic(8, tiny_model());
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.replicas = 2;
  cfg.codec = "twobit";
  cfg.metrics_dir = dir.string();
  {
    core::PruneTrainer trainer(net, data, cfg);
  }
  set_enabled(false);

  const RunManifest m = RunRecorder::read_manifest(dir.string());
  EXPECT_EQ(m.config.at("codec").as_string(), "twobit");
  EXPECT_EQ(m.config.at("codec_params").at("threshold_scale").as_string(),
            "1.0");
  fs::remove_all(dir);
}

/// Each epoch record carries the spans closed since the previous record,
/// not the run's running totals: its own epoch's train/epoch and
/// train/checkpoint span (the last record's included), one sgd span, and
/// one elastic step span (and one of each step phase) per step of that
/// epoch.
TEST(TrainerTelemetry, EpochRecordsCarryPerEpochSpanWindows) {
  const fs::path dir = scratch_dir("windows");
  MetricsRegistry::global().reset();
  auto data = data::SyntheticImageDataset(tiny_data());
  auto net = models::build_resnet_basic(8, tiny_model());
  core::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 32;
  cfg.base_lr = 0.05f;
  cfg.policy = core::PrunePolicy::kDense;
  cfg.replicas = 2;
  cfg.num_threads = 2;
  cfg.metrics_dir = dir.string();
  cfg.checkpoint_dir = (dir / "ckpt").string();
  cfg.run_name = "unit-windows";
  core::PruneTrainer trainer(net, data, cfg);
  trainer.run();
  set_enabled(false);

  const auto records = RunRecorder::read_records(dir.string());
  ASSERT_EQ(records.size(), std::size_t(cfg.epochs));
  const std::string step = "train/epoch/sgd/dist/elastic_step";
  double steps_before = 0;
  for (std::size_t e = 0; e < records.size(); ++e) {
    const auto& r = records[e];
    const double steps = r.counters.at("dist/steps") - steps_before;
    steps_before = r.counters.at("dist/steps");
    ASSERT_GT(steps, 0) << "epoch " << e;
    for (const char* name :
         {"train/epoch", "train/checkpoint", "train/epoch/sgd"}) {
      ASSERT_TRUE(r.spans.count(name)) << name << ", epoch " << e;
      EXPECT_EQ(r.spans.at(name).count, 1u) << name << ", epoch " << e;
    }
    for (const std::string& name :
         {step, step + "/replicas", step + "/exchange", step + "/update"}) {
      ASSERT_TRUE(r.spans.count(name)) << name << ", epoch " << e;
      EXPECT_EQ(double(r.spans.at(name).count), steps)
          << name << ", epoch " << e;
    }
    // The record is written after the epoch's checkpoint: the generation
    // gauge already counts it.
    EXPECT_EQ(r.gauges.at("integrity/ckpt_generations"), double(e + 1))
        << "epoch " << e;
  }
  MetricsRegistry::global().reset();
  fs::remove_all(dir);
}

/// The step-phase spans open on the stepping thread only: a two-thread,
/// four-replica step records exactly one of each per step and nothing from
/// the lanes' worker thread.
TEST_F(TelemetryTest, ElasticStepRecordsOnePhaseSpanOfEachPerStep) {
  auto net = models::build_resnet_basic(8, tiny_model());
  cost::CommSpec spec;
  spec.gpus = 4;
  dist::ElasticCluster cluster(net, 4, spec);
  exec::ExecContext ctx(2);
  optim::SGD opt(0.05f, 0.9f);
  Rng rng(3);
  data::Batch batch;
  batch.images = Tensor::randn({16, 3, 8, 8}, rng);
  for (int i = 0; i < 16; ++i) batch.labels.push_back(i % 4);
  const std::uint64_t steps = 3;
  for (std::uint64_t i = 0; i < steps; ++i) cluster.step(ctx, batch, opt);

  const auto spans = MetricsRegistry::global().spans();
  const std::vector<std::string> expected = {
      "dist/elastic_step", "dist/elastic_step/exchange",
      "dist/elastic_step/replicas", "dist/elastic_step/update"};
  std::vector<std::string> names;
  for (const auto& [name, stats] : spans) {
    names.push_back(name);
    EXPECT_EQ(stats.count, steps) << name;
  }
  EXPECT_EQ(names, expected);
}

TEST(BenchSummary, FlagsNonMonotoneTrajectories) {
  const fs::path dir = scratch_dir("monotone");
  RunManifest m;
  m.run_name = "mono";
  RunRecorder rec(dir.string(), m);
  EpochRecord r = sample_record();
  r.epoch = 0;
  rec.append(r);
  r.epoch = 1;
  r.flops_per_sample_train *= 2;  // cost grows: not a PruneTrain trajectory
  rec.append(r);
  const Json summary = bench_summary(dir.string(), "mono");
  EXPECT_FALSE(summary.at("flops_monotone_nonincreasing").as_bool());
  EXPECT_TRUE(summary.at("memory_monotone_nonincreasing").as_bool());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pt::telemetry
