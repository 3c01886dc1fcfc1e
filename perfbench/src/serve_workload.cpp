#include "serve_workload.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>

#include "ckpt/checkpoint.h"
#include "nn/conv2d.h"
#include "prune/channel_analysis.h"
#include "prune/reconfigure.h"
#include "util/rng.h"

namespace perfbench {
namespace fs = std::filesystem;

namespace {

// The traffic of the repository's own serving load (bench/serve_load.cpp):
// 200 requests per modeled second (1 tick = 1 ms) for 6 s with the swap
// halfway, 80-tick deadlines, a registry poll every 10 ticks, batches of up
// to 8, queues of 64 and 2 modeled workers. A full dense batch is priced
// at 8 ticks on one worker (price_fixture), so the modeled workers are
// lightly loaded and nearly every batch leaves full, forced by its deadline.
constexpr pt::serve::Tick kTraceTicks = 6000;
constexpr double kMeanInterarrival = 5.0;
constexpr pt::serve::Tick kDeadline = 80;
constexpr pt::serve::Tick kPollInterval = 10;
constexpr std::int64_t kMaxBatch = 8;
constexpr int kWorkers = 2;

/// One timed unit of the modeled clock (about 51 requests).
constexpr pt::serve::Tick kWindowTicks = 256;
/// Share of every prunable channel variable the pruned generation loses.
constexpr float kPrunedFraction = 0.5f;

/// Wall seconds of one trace replay on a 4-core x86 VM; sets how many
/// replays one measuring window holds.
constexpr double kNominalReplaySeconds = 0.4;

/// Zeroes output group `k` of a conv (W[k, :, :, :]).
void zero_out_group(pt::nn::Conv2d& conv, std::int64_t k) {
  const std::int64_t group = conv.in_channels() * conv.kernel() * conv.kernel();
  float* w = conv.weight().value.data() + k * group;
  std::fill(w, w + group, 0.f);
}

/// Zeroes input group `c` of a conv (W[:, c, :, :]).
void zero_in_group(pt::nn::Conv2d& conv, std::int64_t c) {
  const std::int64_t rs = conv.kernel() * conv.kernel();
  float* w = conv.weight().value.data();
  for (std::int64_t k = 0; k < conv.out_channels(); ++k) {
    float* p = w + (k * conv.in_channels() + c) * rs;
    std::fill(p, p + rs, 0.f);
  }
}

std::string gen_path(const std::string& dir, int generation) {
  return (fs::path(dir) / ("ckpt-epoch-" + std::to_string(generation) + ".bin"))
      .string();
}

/// A full dense batch takes 8 modeled ticks on one worker.
void price_fixture(ServeFixture& f, pt::graph::Network& dense) {
  f.cfg.flops_per_tick =
      inference_flops(dense, f.input) * static_cast<double>(f.cfg.max_batch) / 8.0;
}

}  // namespace

ServeRep serve_rep(const ServeFixture& fixture, const std::string& run_dir,
                   bool with_trace, Generations* given) {
  ServeRep rep;
  const std::string dir = run_dir + "/serve_generations";
  const std::string staged = run_dir + "/serve_pruned.bin";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const double t0 = now_s();
  ServeFixture f = fixture;
  Generations gens = given != nullptr
                         ? Generations{clone(given->dense), clone(given->pruned)}
                         : build_generations(f);
  price_fixture(f, gens.dense);
  pt::ckpt::Checkpoint::capture(gens.dense).save(gen_path(dir, 0));
  pt::ckpt::Checkpoint::capture(gens.pruned).save(staged);
  const std::vector<pt::serve::Request> trace =
      with_trace ? pt::serve::synthesize_trace({f.trace})
                 : std::vector<pt::serve::Request>{};

  pt::exec::ExecContext ctx(1);
  pt::serve::ServeRuntime runtime(f.cfg, ctx);
  runtime.add_model("resnet20", dir, f.input);
  // Window boundaries: the first one (tick 1) follows the tick-0 poll that
  // publishes the dense generation, and ends set-up.
  const std::int64_t last_tick =
      with_trace ? f.trace.end + 4 * kDeadline : 1;
  std::vector<pt::serve::Tick> ticks;
  for (pt::serve::Tick t = 1; t <= last_tick; t += kWindowTicks) {
    ticks.push_back(t);
  }
  std::vector<double> wall(ticks.size(), 0.0);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    runtime.schedule(ticks[i], [&wall, i] { wall[i] = now_s(); });
  }
  if (with_trace) {
    runtime.schedule(f.swap_tick, [&] {
      fs::copy_file(staged, gen_path(dir, 1),
                    fs::copy_options::overwrite_existing);
    });
  }
  const pt::serve::ServeReport report = runtime.run(trace);
  const double t_end = now_s();
  rep.setup_s = wall.front() - t0;

  Json& r = rep.record;
  Json jt = Json::array(), jw = Json::array();
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    jt.push_back(Json(ticks[i]));
    jw.push_back(Json(wall[i] - t0));
  }
  r["window_ticks"] = std::move(jt);
  r["window_t"] = std::move(jw);
  r["end_t"] = Json(t_end - t0);
  Json formed = Json::array(), generation = Json::array();
  std::int64_t non_finite = 0;
  for (const pt::serve::Response& resp : report.responses) {
    if (resp.shed) continue;
    formed.push_back(Json(resp.formed));
    generation.push_back(Json(resp.generation));
    for (float v : resp.logits.span()) non_finite += std::isfinite(v) ? 0 : 1;
  }
  r["formed"] = std::move(formed);
  r["generation"] = std::move(generation);
  r["non_finite_logits"] = Json(non_finite);
  r["requests"] = Json(report.requests);
  r["admitted"] = Json(report.admitted);
  r["completed"] = Json(report.completed);
  r["shed"] = Json(report.shed);
  r["dropped"] = Json(report.dropped);
  r["late"] = Json(report.late);
  r["batches"] = Json(report.batches);
  r["mean_batch_size"] = Json(report.mean_batch_size);
  r["max_batch"] = Json(f.cfg.max_batch);
  r["modeled_p99_ticks"] = Json(report.p99_latency_ticks);
  Json swaps = Json::array();
  for (const pt::serve::SwapEvent& s : report.swaps) {
    Json j = Json::object();
    j["tick"] = Json(s.tick);
    j["to_generation"] = Json(s.record.to_generation);
    j["service_ticks_per_batch"] = Json(s.record.service_ticks_per_batch);
    j["inference_flops"] = Json(s.record.inference_flops);
    swaps.push_back(std::move(j));
  }
  r["swaps"] = std::move(swaps);
  r["rollbacks"] = Json(static_cast<std::int64_t>(report.rollbacks.size()));
  r["quarantined"] = Json(report.quarantined);
  Json events = Json::array();
  for (const pt::robust::HealthEvent& ev : report.health_events) {
    events.push_back(Json(ev.describe()));
  }
  r["health_events"] = std::move(events);
  const pt::Shape& in = f.input;
  r["dense_flops_inf"] = Json(inference_flops(gens.dense, in));
  r["pruned_flops_inf"] = Json(inference_flops(gens.pruned, in));
  r["dense_channels"] = Json(channels_alive(gens.dense));
  r["pruned_channels"] = Json(channels_alive(gens.pruned));
  r["pruned_widths"] = conv_widths(gens.pruned);
  return rep;
}

ServeFixture serve_fixture(std::uint64_t seed) {
  ServeFixture f;
  f.model.in_channels = 3;
  f.model.image_h = 8;
  f.model.image_w = 8;
  f.model.classes = 10;
  f.model.width_mult = 0.5f;
  f.model.seed = derive_seed(seed, 11);
  f.input = {3, 8, 8};
  f.prune_seed = derive_seed(seed, 12);

  f.cfg.workers = kWorkers;
  f.cfg.max_batch = kMaxBatch;
  f.cfg.max_queue = 8 * kMaxBatch;
  f.cfg.poll_interval = kPollInterval;

  f.trace.model = "resnet20";
  f.trace.mean_interarrival = kMeanInterarrival;
  f.trace.start = 0;
  f.trace.end = kTraceTicks;
  f.trace.deadline = kDeadline;
  f.trace.input = f.input;
  f.trace.seed = derive_seed(seed, 13);
  // Mid-trace, on a poll tick.
  f.swap_tick = (kTraceTicks / 2 / kPollInterval) * kPollInterval;
  return f;
}

void zero_channels(pt::graph::Network& net, float fraction, std::uint64_t seed) {
  // Every prunable channel variable loses the same number of channels; the
  // seed only picks which ones.
  const pt::prune::ChannelAnalysis analysis =
      pt::prune::analyze_channels(net, 0.f);
  pt::Rng rng(seed);
  for (const pt::prune::ChannelVarInfo& var : analysis.vars) {
    if (var.dense_required || var.writer_convs.empty() || var.channels < 2) {
      continue;
    }
    std::vector<std::int64_t> order(static_cast<std::size_t>(var.channels));
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.uniform_int(i + 1)]);
    }
    const auto drop = static_cast<std::size_t>(
        std::floor(fraction * static_cast<float>(var.channels)));
    for (std::size_t i = 0; i < drop; ++i) {
      for (int id : var.writer_convs) {
        zero_out_group(net.layer_as<pt::nn::Conv2d>(id), order[i]);
      }
      for (int id : var.reader_convs) {
        zero_in_group(net.layer_as<pt::nn::Conv2d>(id), order[i]);
      }
    }
  }
}

Generations build_generations(const ServeFixture& f) {
  Generations g{pt::models::build_by_name(f.model_name, f.model),
                pt::graph::Network()};
  g.pruned = clone(g.dense);
  pt::graph::Network& net = g.pruned;
  zero_channels(net, kPrunedFraction, f.prune_seed);
  pt::prune::Reconfigurer(net, 1e-4f).reconfigure();
  return g;
}

Json run_serve_workload(std::uint64_t seed, double seconds,
                        const std::string& run_dir, int setup_probes) {
  const ServeFixture f = serve_fixture(seed);
  Json out = Json::object();
  out["workload"] = Json("serve_swap");
  Json probes = Json::array();
  // A fixed number of replays per --seconds (see kNominalReplaySeconds).
  const long runs = std::max(1L, std::lround(seconds / kNominalReplaySeconds));
  for (long slot = 0; slot <= runs; ++slot) {
    for (int i = probes_in_slot(setup_probes, runs, slot); i > 0; --i) {
      probes.push_back(Json(serve_rep(f, run_dir, false, nullptr).setup_s));
    }
    if (slot == runs) break;
    append_rep(run_dir, serve_rep(f, run_dir, true, nullptr).record);
    if (slot == runs - 1) out["peak_rss_mb"] = Json(peak_rss_mb());
  }
  out["setup_probes"] = std::move(probes);
  fs::remove_all(run_dir + "/serve_generations");
  fs::remove(run_dir + "/serve_pruned.bin");
  return out;
}

}  // namespace perfbench
