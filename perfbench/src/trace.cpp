// The traced per-layer run.
//
// It first runs the workload once untraced (the reference timings and
// the architectures the workload actually ran: the initial and final
// networks of its PruneTrainer run, or the two serving generations), then
// replays the workload's units through each layer's public entry points at
// those shapes until the measuring window is spent. A span (name, start,
// end, parent) wraps every call; spans stay in memory and are written to
// <run-dir>/spans.jsonl when the run ends. Inside a graph call, the layers'
// own times come from the network's per-node profile
// (graph::Network::set_profiling), so they time the library's executor;
// the graph span minus them is the executor's overhead.
// perfbench/trace_metrics.py derives the per-layer metrics from both.
#include "trace.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include "ckpt/checkpoint.h"
#include "cost/device.h"
#include "cost/flops.h"
#include "dist/allreduce.h"
#include "dist/codec.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "optim/sgd.h"
#include "prune/materialize.h"
#include "prune/reconfigure.h"
#include "robust/integrity.h"
#include "serve/canary.h"
#include "serve/registry.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "telemetry/record.h"
#include "train_workload.h"

namespace perfbench {
namespace fs = std::filesystem;

namespace {

class Tracer {
 public:
  struct Span {
    int name;
    double start;
    double end;
    int parent;
  };

  class Scope {
   public:
    Scope(Tracer& t, int index) : t_(&t), index_(index) {}
    ~Scope() { t_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_;
  };

  Scope open(const std::string& name) {
    auto it = ids_.find(name);
    if (it == ids_.end()) {
      it = ids_.emplace(name, static_cast<int>(names_.size())).first;
      names_.push_back(name);
    }
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({it->second, now_s(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope(*this, stack_.back());
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << Json(names_[static_cast<std::size_t>(s.name)]).dump() << ' '
          << Json(s.start).dump() << ' ' << Json(s.end).dump() << ' '
          << s.parent << '\n';
    }
  }

 private:
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now_s();
    stack_.pop_back();
  }

  std::map<std::string, int> ids_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

using pt::graph::Network;
using pt::graph::Node;

std::string layer_kind(const pt::nn::Layer& layer) {
  if (layer.type() == "Conv2d") return "conv2d";
  if (layer.type() == "BatchNorm2d") return "batchnorm";
  return "other";
}

/// The network's per-node profile of its last call, summed by layer kind:
/// seconds of "conv2d.fwd", "conv2d.bwd", "batchnorm.fwd", ... ("other"
/// holds every other layer and the residual adds).
Json profile_by_kind(const Network& net) {
  std::map<std::string, double> sums;
  for (const char* kind : {"conv2d", "batchnorm", "other"}) {
    sums[std::string(kind) + ".fwd"] = 0;
    sums[std::string(kind) + ".bwd"] = 0;
  }
  const std::vector<pt::graph::NodeProfile>& prof = net.profile();
  for (std::size_t i = 0; i < prof.size(); ++i) {
    const Node& n = net.node(static_cast<int>(i));
    if (n.kind != Node::Kind::kLayer && n.kind != Node::Kind::kAdd) continue;
    const std::string kind =
        n.kind == Node::Kind::kLayer ? layer_kind(*n.layer) : "other";
    sums[kind + ".fwd"] += prof[i].forward_seconds;
    sums[kind + ".bwd"] += prof[i].backward_seconds;
  }
  Json out = Json::object();
  for (const auto& [key, seconds] : sums) out[key] = Json(seconds);
  return out;
}

/// The architectures and shapes one workload ran.
struct Shapes {
  Network dense;
  Network pruned;
  pt::Shape input;
  std::int64_t batch = 64;       ///< samples per forward (per replica)
  std::int64_t replicas = 4;     ///< for the gradient exchange
  int threads = 1;
  float lambda = 0.f;
  std::int64_t epochs = 12;      ///< telemetry records per run
  pt::models::ModelConfig model; ///< for the width sweep
  std::string model_name = "resnet20";
};

pt::Tensor random_batch(const pt::Shape& input, std::int64_t batch, pt::Rng& rng) {
  return pt::Tensor::randn({batch, input[0], input[1], input[2]}, rng);
}

std::vector<std::int64_t> random_labels(std::int64_t batch, pt::Rng& rng) {
  std::vector<std::int64_t> labels(static_cast<std::size_t>(batch));
  for (auto& l : labels) l = static_cast<std::int64_t>(rng.uniform_int(10));
  return labels;
}

/// Network::forward, the loss and Network::backward of one batch, as spans
/// "graph.forward.<tag>", "loss.<tag>" and "graph.backward.<tag>". With
/// `layers` set, the network's profile is on for the call and its
/// profile_by_kind() is appended to `layers`.
void graph_step(Tracer& tr, pt::exec::ExecContext& ctx, Network& net,
                const pt::Tensor& x, const std::vector<std::int64_t>& labels,
                const std::string& tag, Json* layers) {
  net.set_profiling(layers != nullptr);
  net.reset_profile();
  pt::Tensor out;
  {
    auto s = tr.open("graph.forward." + tag);
    out = net.forward(ctx, x, true);
  }
  pt::nn::SoftmaxCrossEntropy loss;
  pt::Tensor dy;
  {
    auto s = tr.open("loss." + tag);
    loss.forward(out, labels);
    dy = loss.backward();
  }
  net.zero_grad();
  {
    auto s = tr.open("graph.backward." + tag);
    net.backward(ctx, dy);
  }
  net.set_profiling(false);
  if (layers != nullptr) layers->push_back(profile_by_kind(net));
}

/// One traced optimizer step: data, the profiled graph step, strategy
/// hooks, optimizer. Parent span "step.<tag>".
void traced_step(Tracer& tr, pt::exec::ExecContext& ctx, Network& net,
                 const std::string& tag, pt::data::DataLoader& loader,
                 std::int64_t batch, pt::prune::Strategy& hooks, float lambda,
                 Json& layers) {
  auto step = tr.open("step." + tag);
  pt::data::Batch b;
  {
    auto s = tr.open("data.batch");
    if (!loader.has_next()) loader.begin_epoch();
    b = loader.next(batch);
  }
  graph_step(tr, ctx, net, b.images, b.labels, tag, &layers[tag]);
  pt::prune::StepInfo info;
  info.lr = 0.01f;
  info.lambda = lambda;
  info.sparsify = true;
  {
    auto s = tr.open("prune.hooks." + tag);
    hooks.accumulate_gradients(net, info);
    hooks.post_step_update(net, info);
    hooks.post_step(net, info);
  }
  {
    auto s = tr.open("optim.sgd_step." + tag);
    pt::optim::SGD opt(0.01f, 0.9f, 1e-4f);
    opt.step(pt::nn::group_params(net.state()));
  }
}

/// The largest-FLOP conv of `net` at `input`, as a GEMM/im2col geometry.
pt::ConvGeom largest_conv(Network& net, const pt::Shape& input, std::int64_t& k_out) {
  const std::vector<pt::Shape> shapes =
      pt::cost::infer_shapes(net, {1, input[0], input[1], input[2]});
  double best = -1;
  pt::ConvGeom g;
  for (int id : net.nodes_of_type<pt::nn::Conv2d>()) {
    auto& conv = net.layer_as<pt::nn::Conv2d>(id);
    const pt::Shape& in = shapes[static_cast<std::size_t>(net.node(id).inputs[0])];
    pt::ConvGeom c{conv.in_channels(), in[2], in[3], conv.kernel(), conv.stride(),
                   conv.pad()};
    const double flops = static_cast<double>(conv.out_channels()) *
                         static_cast<double>(c.col_rows() * c.col_cols());
    if (flops > best) {
      best = flops;
      g = c;
      k_out = conv.out_channels();
    }
  }
  return g;
}

/// Conv FLOPs per sample (forward, backward) by cost::FlopsModel.
std::pair<double, double> conv_flops(Network& net, const pt::Shape& input) {
  pt::cost::FlopsModel model(net, input);
  double fwd = 0, bwd = 0;
  for (const auto& l : model.layers()) {
    if (l.type != "Conv2d") continue;
    fwd += l.forward;
    bwd += l.backward;
  }
  return {fwd, bwd};
}

/// Modeled (DeviceModel roofline) conv forward / backward seconds.
std::pair<double, double> modeled_conv(Network& net, const pt::Shape& input,
                                       std::int64_t batch) {
  pt::cost::DeviceModel device(pt::cost::DeviceSpec::titan_xp());
  double fwd = 0, bwd = 0;
  for (const auto& t : device.layer_times(net, input, batch, true)) {
    if (t.type != "Conv2d") continue;
    fwd += t.forward_s;
    bwd += t.backward_s;
  }
  return {fwd, bwd};
}

/// Everything the replay loop needs, built once before it.
struct Replay {
  Shapes* sh;
  std::string run_dir;
  pt::exec::ExecContext ctx;
  pt::exec::ExecContext ctx1{1};
  pt::exec::ExecContext ctx2{2};
  pt::data::SyntheticImageDataset dataset;
  pt::data::DataLoader loader;
  std::unique_ptr<pt::prune::Strategy> hooks;
  Json layers = Json::object();  ///< per tag: profile_by_kind() per call
  std::vector<Network> sweep;
  std::vector<std::string> sweep_tags;
  std::vector<Network> replicas;
  std::unique_ptr<pt::dist::GradientCodec> codec;
  Network served_dense, served_pruned;
  pt::Rng rng{99};

  Replay(Shapes& s, const std::string& dir, const pt::data::SyntheticSpec& spec)
      : sh(&s),
        run_dir(dir),
        ctx(s.threads),
        dataset(spec),
        loader(dataset, 5),
        hooks(pt::prune::StrategyRegistry::global().create(
            "group_lasso", {{"proximal", "true"}})) {
    const std::pair<float, const char*> widths[] = {
        {1.f, "w1"}, {0.5f, "w0.5"}, {0.25f, "w0.25"}, {0.125f, "w0.125"}};
    for (const auto& [w, tag] : widths) {
      pt::models::ModelConfig cfg = s.model;
      cfg.width_mult = s.model.width_mult * w;
      sweep.push_back(pt::models::build_by_name(s.model_name, cfg));
      sweep_tags.push_back(tag);
    }
    // Gradient exchange over `replicas` copies of the final network.
    for (std::int64_t r = 0; r < s.replicas; ++r) replicas.push_back(clone(s.pruned));
    codec = pt::dist::CodecRegistry::global().create("live_channel");
    codec->bind(s.pruned, static_cast<int>(s.replicas));
    const std::int64_t shard = std::max<std::int64_t>(1, s.batch);
    for (Network& net : replicas) {
      pt::Tensor out = net.forward(ctx, random_batch(s.input, shard, rng), true);
      pt::nn::SoftmaxCrossEntropy loss;
      loss.forward(out, random_labels(shard, rng));
      net.zero_grad();
      net.backward(ctx, loss.backward());
    }
    served_dense = clone(s.dense);
    served_pruned = clone(s.pruned);
    pt::prune::materialize_inference(served_dense, pt::prune::InferenceForm::kChannelUnion);
    pt::prune::materialize_inference(served_pruned, pt::prune::InferenceForm::kChannelUnion);
  }
};

void replay_once(Tracer& tr, Replay& rp, Json& values) {
  Shapes& sh = *rp.sh;
  // --- tensor / nn / graph / optim / data / prune hooks at both widths.
  for (int i = 0; i < 2; ++i) {
    traced_step(tr, rp.ctx, sh.dense, "dense", rp.loader, sh.batch, *rp.hooks,
                sh.lambda, rp.layers);
    traced_step(tr, rp.ctx, sh.pruned, "pruned", rp.loader, sh.batch, *rp.hooks,
                sh.lambda, rp.layers);
  }
  const pt::Tensor x = random_batch(sh.input, sh.batch, rp.rng);
  const std::vector<std::int64_t> labels = random_labels(sh.batch, rp.rng);

  // Width sweep: the workload model at widths 1, .5, .25, .125.
  for (std::size_t w = 0; w < rp.sweep.size(); ++w) {
    const std::string& tag = rp.sweep_tags[w];
    graph_step(tr, rp.ctx, rp.sweep[w], x, labels, tag, &rp.layers[tag]);
  }

  // Raw kernels at the largest conv of the dense model, one batch each.
  {
    std::int64_t k = 1;
    const pt::ConvGeom g = largest_conv(sh.dense, sh.input, k);
    const std::int64_t crs = g.col_rows(), hw = g.col_cols();
    std::vector<float> in(static_cast<std::size_t>(g.in_c * g.in_h * g.in_w), 0.5f);
    std::vector<float> col(static_cast<std::size_t>(crs * hw), 0.25f);
    std::vector<float> w(static_cast<std::size_t>(k * crs), 0.1f);
    std::vector<float> y(static_cast<std::size_t>(k * hw), 0.f);
    std::vector<float> dw(static_cast<std::size_t>(k * crs), 0.f);
    const double gemm_flops = 2.0 * static_cast<double>(k * crs * hw * sh.batch);
    values["tensor.gemm.flops_per_call"] = Json(gemm_flops);
    {
      auto s = tr.open("tensor.im2col");
      for (std::int64_t b = 0; b < sh.batch; ++b) pt::im2col(g, in.data(), col.data());
    }
    {
      auto s = tr.open("tensor.gemm_nn");
      for (std::int64_t b = 0; b < sh.batch; ++b) {
        pt::gemm_nn(rp.ctx, k, hw, crs, 1.f, w.data(), col.data(), 0.f, y.data());
      }
    }
    {
      auto s = tr.open("tensor.gemm_nt");
      for (std::int64_t b = 0; b < sh.batch; ++b) {
        pt::gemm_nt(rp.ctx, k, crs, hw, 1.f, y.data(), col.data(), 1.f, dw.data());
      }
    }
    {
      auto s = tr.open("tensor.gemm_tn");
      for (std::int64_t b = 0; b < sh.batch; ++b) {
        pt::gemm_tn(rp.ctx, crs, hw, k, 1.f, w.data(), y.data(), 0.f, col.data());
      }
    }
    {
      auto s = tr.open("tensor.col2im");
      for (std::int64_t b = 0; b < sh.batch; ++b) {
        std::fill(in.begin(), in.end(), 0.f);
        pt::col2im(g, col.data(), in.data());
      }
    }
  }

  // exec: empty dispatch, 1- vs 2-thread step.
  for (int i = 0; i < 50; ++i) {
    auto s = tr.open("exec.dispatch");
    rp.ctx2.pool().parallel_for(2, [](std::int64_t, std::int64_t, int) {});
  }
  {
    auto s = tr.open("exec.step.t1");
    graph_step(tr, rp.ctx1, sh.dense, x, labels, "t1", nullptr);
  }
  {
    auto s = tr.open("exec.step.t2");
    graph_step(tr, rp.ctx2, sh.dense, x, labels, "t2", nullptr);
  }
  values["exec.workspace_peak_mb"] =
      Json(static_cast<double>(rp.ctx.workspace().high_water_bytes()) / (1 << 20));

  // dist: the gradient exchange of one step over the replicas.
  {
    std::vector<Network*> nets;
    for (Network& n : rp.replicas) nets.push_back(&n);
    const std::vector<double> weights(nets.size(), 1.0 / static_cast<double>(nets.size()));
    pt::dist::ExchangeStats ex;
    {
      auto s = tr.open("dist.exchange");
      ex = pt::dist::exchange_gradients(*rp.codec, nets, weights, rp.ctx);
    }
    values["dist.wire_bytes_per_step"] = Json(ex.wire_bytes);
    values["dist.wire_fraction"] = Json(ex.dense_bytes > 0 ? ex.wire_bytes / ex.dense_bytes : 0.0);
    std::vector<pt::dist::WireTensor> wires;
    {
      auto s = tr.open("dist.encode");
      for (std::size_t r = 0; r < rp.replicas.size(); ++r) {
        const auto params = rp.replicas[r].params();
        for (std::size_t t = 0; t < params.size(); ++t) {
          wires.push_back(rp.codec->encode(static_cast<int>(r), t, params[t]->grad.data(),
                                           params[t]->grad.numel(), rp.ctx));
        }
      }
    }
    {
      auto s = tr.open("dist.decode");
      const auto params = rp.replicas[0].params();
      std::size_t i = 0;
      for (std::size_t r = 0; r < rp.replicas.size(); ++r) {
        for (std::size_t t = 0; t < params.size(); ++t, ++i) {
          std::vector<float> out(static_cast<std::size_t>(params[t]->grad.numel()));
          rp.codec->decode(wires[i], t, out.data(), rp.ctx);
        }
      }
    }
  }

  // robust: state digest, checkpoint scrub, canary.
  {
    auto s = tr.open("robust.digest");
    (void)pt::robust::compute_state_digest(sh.dense, rp.ctx);
  }
  const std::string ckpt_dir = rp.run_dir + "/trace_ckpt";
  fs::create_directories(ckpt_dir);
  const std::string path = ckpt_dir + "/ckpt-epoch-1.bin";
  {
    auto s = tr.open("ckpt.save");
    pt::ckpt::Checkpoint::capture(sh.dense).save(path);
  }
  values["ckpt.mb"] = Json(static_cast<double>(fs::file_size(path)) / (1 << 20));
  {
    auto s = tr.open("ckpt.load");
    (void)pt::ckpt::Checkpoint::load(path).restore_network();
  }
  {
    pt::robust::CheckpointScrubber scrubber(0);
    for (int e = 2; e <= 3; ++e) {
      const std::string p = ckpt_dir + "/ckpt-epoch-" + std::to_string(e) + ".bin";
      fs::copy_file(path, p, fs::copy_options::overwrite_existing);
      scrubber.note_saved(p, e);
    }
    scrubber.note_saved(path, 1);
    auto s = tr.open("robust.scrub");
    scrubber.scrub(rp.ctx);
  }
  {
    pt::serve::ModelVersion incumbent, candidate;
    incumbent.net = clone(rp.served_dense);
    candidate.net = clone(rp.served_pruned);
    pt::serve::CanaryGate gate(pt::serve::CanaryConfig{});
    auto s = tr.open("robust.canary");
    (void)gate.evaluate(candidate, &incumbent, sh.input, rp.ctx);
  }

  // prune: surgery and materialization.
  {
    Network net = clone(sh.dense);
    zero_channels(net, 0.25f, 7);
    auto s = tr.open("prune.reconfigure");
    pt::prune::Reconfigurer(net, 1e-4f).reconfigure();
  }
  {
    Network net = clone(sh.pruned);
    auto s = tr.open("prune.materialize");
    pt::prune::materialize_inference(net, pt::prune::InferenceForm::kChannelUnion);
  }

  // telemetry: one run's epoch records, and profiling on vs off.
  {
    const std::string dir = rp.run_dir + "/trace_metrics";
    fs::remove_all(dir);
    pt::telemetry::RunManifest manifest;
    manifest.run_name = "perfbench-trace";
    pt::telemetry::RunRecorder recorder(dir, manifest);
    pt::telemetry::EpochRecord rec;
    rec.strategy = "group_lasso";
    rec.layers = pt::telemetry::collect_layer_records(sh.dense, sh.input);
    for (std::int64_t e = 0; e < sh.epochs; ++e) {
      rec.epoch = e;
      const char* name = e == 0 ? "telemetry.record.first"
                         : e == sh.epochs - 1 ? "telemetry.record.last"
                                              : "telemetry.record";
      auto s = tr.open(name);
      recorder.append(rec);
    }
  }
  {
    auto s = tr.open("telemetry.step.plain");
    graph_step(tr, rp.ctx, sh.dense, x, labels, "plain", nullptr);
  }
  {
    Json discard;
    auto s = tr.open("telemetry.step.profiled");
    graph_step(tr, rp.ctx, sh.dense, x, labels, "profiled", &discard);
  }

  // serve: forward per batch of each generation, and one hot-swap publish.
  {
    const std::int64_t mb = 8;
    const pt::Tensor xb = random_batch(sh.input, mb, rp.rng);
    {
      auto s = tr.open("serve.forward.dense");
      (void)rp.served_dense.forward(rp.ctx, xb, false);
    }
    {
      auto s = tr.open("serve.forward.pruned");
      (void)rp.served_pruned.forward(rp.ctx, xb, false);
    }
  }
  {
    const std::string dir = rp.run_dir + "/trace_registry";
    fs::remove_all(dir);
    fs::create_directories(dir);
    pt::serve::RegistryConfig cfg;
    cfg.flops_per_tick = inference_flops(sh.dense, sh.input);
    pt::serve::ModelRegistry registry(cfg);
    pt::serve::LeaseTable leases;
    registry.add_model("m", dir, sh.input);
    pt::ckpt::Checkpoint::capture(sh.dense).save(dir + "/ckpt-epoch-0.bin");
    registry.poll(rp.ctx, leases);
    pt::ckpt::Checkpoint::capture(sh.pruned).save(dir + "/ckpt-epoch-1.bin");
    auto s = tr.open("serve.publish");
    registry.poll(rp.ctx, leases);
  }
}

Json replay(Shapes& sh, const pt::data::SyntheticSpec& spec, double seconds,
            const std::string& run_dir, Json& values) {
  Tracer tr;
  Replay rp(sh, run_dir, spec);
  const double start = now_s();
  int rounds = 0;
  while (rounds < 3 || now_s() - start < seconds) {
    replay_once(tr, rp, values);
    ++rounds;
  }
  // Width-sweep FLOPs and the modeled roofline beside them.
  Json sweep = Json::array();
  for (std::size_t w = 0; w < rp.sweep.size(); ++w) {
    const auto [fwd, bwd] = conv_flops(rp.sweep[w], sh.input);
    const auto [mfwd, mbwd] = modeled_conv(rp.sweep[w], sh.input, sh.batch);
    Json j = Json::object();
    j["tag"] = Json(rp.sweep_tags[w]);
    j["fwd_flops"] = Json(fwd * static_cast<double>(sh.batch));
    j["bwd_flops"] = Json(bwd * static_cast<double>(sh.batch));
    j["modeled_fwd_ms"] = Json(1e3 * mfwd);
    j["modeled_bwd_ms"] = Json(1e3 * mbwd);
    sweep.push_back(std::move(j));
  }
  values["sweep"] = std::move(sweep);
  values["layers"] = std::move(rp.layers);
  values["batch"] = Json(sh.batch);
  values["rounds"] = Json(rounds);
  tr.write(run_dir + "/spans.jsonl");
  return values;
}

}  // namespace

Json trace_train(const std::string& workload, std::uint64_t seed, double seconds,
                 const std::string& run_dir) {
  const TrainFixture f = train_fixture(workload, TrainKnobs{}, run_dir);
  Json out = Json::object();
  out["workload"] = Json(workload);
  out["seed"] = Json(static_cast<std::int64_t>(seed));
  // The untraced reference run, then the same run under plain group_lasso:
  // the step-timestamping strategy must not change a bit of the trajectory.
  TrainRep timed = run_train_rep(f, true);
  const TrainRep plain = run_train_rep(f, false);
  out["bitwise_equal"] =
      Json(timed.digest == plain.digest &&
           timed.record.at("epochs").dump() == plain.record.at("epochs").dump());
  timed.record["digest"] = Json(static_cast<std::int64_t>(timed.digest));
  out["untraced"] = timed.record;

  Shapes sh;
  sh.dense = std::move(timed.initial);
  sh.pruned = std::move(timed.final_net);
  sh.input = f.input();
  sh.replicas = f.cfg.replicas > 1 ? f.cfg.replicas : 4;
  sh.batch = f.cfg.batch_size / std::max<std::int64_t>(1, f.cfg.replicas);
  sh.threads = static_cast<int>(f.cfg.num_threads);
  sh.lambda = static_cast<float>(timed.record.at("lambda").as_number());
  sh.epochs = f.cfg.epochs;
  sh.model = f.model;
  sh.model_name = f.model_name;

  // Serving the workload's two architectures (serve.* counts).
  ServeFixture sf = serve_fixture(seed);
  Generations gens{clone(sh.dense), clone(sh.pruned)};
  out["serve"] = serve_rep(sf, run_dir, true, &gens).record;

  Json values = Json::object();
  out["values"] = replay(sh, f.data, seconds, run_dir, values);
  return out;
}

Json trace_serve(std::uint64_t seed, double seconds, const std::string& run_dir) {
  const ServeFixture f = serve_fixture(seed);
  Json out = Json::object();
  out["workload"] = Json("serve_swap");
  out["seed"] = Json(static_cast<std::int64_t>(seed));
  Generations gens = build_generations(f);
  out["serve"] = serve_rep(f, run_dir, true, &gens).record;
  out["untraced"] = out["serve"];

  // The epoch-boundary gap of a short PruneTrainer run of the same model.
  TrainKnobs tk;
  tk.epochs = 3;
  tk.train_samples = 128;
  tk.test_samples = 64;
  TrainFixture tf = train_fixture("train_prune", tk, run_dir);
  tf.model = f.model;
  out["boundary_run"] = run_train_rep(tf, true).record;

  pt::data::SyntheticSpec spec = tf.data;
  Shapes sh;
  sh.dense = clone(gens.dense);
  sh.pruned = clone(gens.pruned);
  sh.input = f.input;
  sh.batch = f.cfg.max_batch;
  sh.replicas = 4;
  sh.threads = 1;
  sh.lambda = 0.f;
  sh.epochs = tk.epochs;
  sh.model = f.model;
  Json values = Json::object();
  out["values"] = replay(sh, spec, seconds, run_dir, values);
  return out;
}

}  // namespace perfbench
