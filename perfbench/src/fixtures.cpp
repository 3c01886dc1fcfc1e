#include "fixtures.h"

#include <fstream>
#include <limits>

#include "ckpt/checkpoint.h"
#include "cost/flops.h"
#include "nn/conv2d.h"

namespace perfbench {

namespace {

// The training fixture is pinned rather than taken from --seed: group-lasso
// pruning on this proxy is chaotic in its inputs (Eq. 3's lambda varied 5x
// with the initial weights, the final FLOPs from 2% to 100% of dense), and
// a pruned phase that differs per seed could not resolve a 10% timing
// change. Seed 6 with these settings prunes gradually to 80% of dense
// training FLOPs with no guardian event.
constexpr std::uint64_t kFixtureSeed = 6;  ///< data, initial weights, shuffle
constexpr float kBoost = 200.f;            ///< Eq. 3 lambda multiplier
constexpr float kRatio = 0.2f;             ///< Eq. 3 target penalty ratio
constexpr std::int64_t kReconfigInterval = 3;
constexpr std::int64_t kBatch = 64;
constexpr float kNoise = 0.3f;             ///< pixel noise of the images
constexpr float kLr = 0.1f;

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finaliser over (seed, salt).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL +
                    0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void append_rep(const std::string& run_dir, const Json& record) {
  std::ofstream out(run_dir + "/reps.jsonl", std::ios::app);
  out << record.dump() << '\n';
  if (!out) throw std::runtime_error("cannot write " + run_dir + "/reps.jsonl");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      if (status >> kb) return kb / 1024.0;
      break;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return std::numeric_limits<double>::quiet_NaN();
}

int probes_in_slot(int probes, long runs, long slot) {
  const long p = probes;
  return static_cast<int>(p * (slot + 1) / (runs + 1) - p * slot / (runs + 1));
}

TrainFixture train_fixture(const std::string& workload,
                           const TrainKnobs& knobs, const std::string& run_dir) {
  TrainFixture f;
  f.data = pt::data::SyntheticSpec::cifar10_like();
  f.data.train_samples = knobs.train_samples;
  f.data.test_samples = knobs.test_samples;
  f.data.noise = kNoise;
  f.data.seed = derive_seed(kFixtureSeed, 1);

  f.model.in_channels = f.data.channels;
  f.model.image_h = f.data.height;
  f.model.image_w = f.data.width;
  f.model.classes = f.data.classes;
  f.model.width_mult = 0.5f;
  f.model.seed = derive_seed(kFixtureSeed, 2);

  pt::core::TrainConfig& c = f.cfg;
  c.epochs = knobs.epochs;
  c.batch_size = kBatch;
  c.base_lr = kLr;
  c.lr_milestones = {knobs.epochs / 2, (3 * knobs.epochs) / 4};
  c.policy = pt::core::PrunePolicy::kPruneTrain;
  c.strategy = "perfbench_group_lasso";
  c.strategy_params = {{"ratio", std::to_string(kRatio)},
                       {"boost", std::to_string(kBoost)},
                       {"proximal", "true"}};
  c.reconfig_interval = kReconfigInterval;
  c.shuffle_seed = derive_seed(kFixtureSeed, 3);
  c.num_threads = 1;
  if (workload == "train_elastic") {
    c.replicas = 4;
    c.codec = "live_channel";
    c.sdc_check_interval = 4;
    c.checkpoint_dir = run_dir + "/ckpt";
    c.keep_checkpoints = 2;
    c.metrics_dir = run_dir + "/metrics";
    c.run_name = "perfbench-train_elastic";
    c.num_threads = 2;
  }
  return f;
}

pt::graph::Network build_model(const TrainFixture& f) {
  return pt::models::build_by_name(f.model_name, f.model);
}

pt::graph::Network clone(pt::graph::Network& net) {
  return pt::ckpt::Checkpoint::capture(net).restore_network();
}

std::int64_t channels_alive(pt::graph::Network& net) {
  std::int64_t channels = 0;
  for (int id : net.nodes_of_type<pt::nn::Conv2d>()) {
    channels += net.layer_as<pt::nn::Conv2d>(id).out_channels();
  }
  return channels;
}

double training_flops(pt::graph::Network& net, const pt::Shape& input) {
  return pt::cost::FlopsModel(net, input).training_flops();
}

double inference_flops(pt::graph::Network& net, const pt::Shape& input) {
  return pt::cost::FlopsModel(net, input).inference_flops();
}

Json conv_widths(pt::graph::Network& net) {
  Json out = Json::array();
  for (int id : net.nodes_of_type<pt::nn::Conv2d>()) {
    out.push_back(Json(net.layer_as<pt::nn::Conv2d>(id).out_channels()));
  }
  return out;
}

}  // namespace perfbench
