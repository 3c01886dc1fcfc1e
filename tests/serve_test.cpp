// Serving runtime tests (ISSUE 8): mailbox admission control and
// padding-free batching, deterministic round-robin scheduling, lease
// publish/retire, the checkpoint-watching registry (corrupt generations
// skipped), worker-count bitwise invariance, overload shedding without
// drops, and the end-to-end zero-drop hot swap whose post-swap responses
// are bitwise identical to a cold serve of the new generation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "ckpt/checkpoint.h"
#include "cost/flops.h"
#include "models/builders.h"
#include "prune/materialize.h"
#include "robust/fault.h"
#include "serve/breaker.h"
#include "serve/canary.h"
#include "serve/mailbox.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "util/fileio.h"

namespace pt {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory; pid-suffixed so the plain and
/// sanitized binaries never collide under a concurrent ctest.
fs::path scratch_dir(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("pt_serve_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

models::ModelConfig tiny_model(float width, std::uint64_t seed) {
  models::ModelConfig cfg;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.classes = 8;
  cfg.width_mult = width;
  cfg.seed = seed;
  return cfg;
}

const Shape kInput{3, 8, 8};

graph::Network tiny_net(float width = 0.5f, std::uint64_t seed = 21) {
  return models::build_resnet_basic(8, tiny_model(width, seed));
}

void write_generation(const fs::path& dir, std::int64_t epoch,
                      graph::Network& net) {
  ckpt::Checkpoint::capture(net).save(
      (dir / ("ckpt-epoch-" + std::to_string(epoch) + ".bin")).string());
}

serve::Request make_request(std::int64_t id, const std::string& model,
                            serve::Tick arrival, serve::Tick deadline,
                            Shape shape = kInput) {
  serve::Request r;
  r.id = id;
  r.model = model;
  r.arrival = arrival;
  r.deadline = deadline;
  r.input = Tensor::zeros(std::move(shape));
  return r;
}

// --- Mailbox -------------------------------------------------------------

TEST(Mailbox, AdmissionShedsWithStructuredReasons) {
  serve::Mailbox m("m", /*max_queue=*/2, /*max_batch=*/4);
  m.set_batch_service_ticks(10);

  // Empty queue: one batch of modeled service -> wait estimate 10 ticks.
  EXPECT_EQ(m.modeled_wait(), 10);
  EXPECT_EQ(m.offer(make_request(0, "m", 0, 5), 0),
            serve::ShedReason::kInfeasibleDeadline);
  EXPECT_EQ(m.offer(make_request(1, "m", 0, 20), 0), serve::ShedReason::kNone);
  EXPECT_EQ(m.offer(make_request(2, "m", 1, 20), 1), serve::ShedReason::kNone);
  EXPECT_EQ(m.offer(make_request(3, "m", 2, 50), 2),
            serve::ShedReason::kQueueFull);
  EXPECT_EQ(m.size(), 2);
  EXPECT_EQ(m.admitted(), 2);
  EXPECT_EQ(m.shed_queue_full(), 1);
  EXPECT_EQ(m.shed_infeasible_count(), 1);

  // The modeled clock is monotone; a regressed arrival is a driver bug.
  EXPECT_THROW(m.offer(make_request(4, "m", 1, 50), 1), std::invalid_argument);
  // Wrong tenant is a routing bug, not a shed.
  EXPECT_THROW(m.offer(make_request(5, "x", 3, 50), 3), std::invalid_argument);
}

TEST(Mailbox, PopBatchIsDeadlineOrderedAndShapeGrouped) {
  serve::Mailbox m("m", /*max_queue=*/0, /*max_batch=*/3);  // unbounded
  m.set_batch_service_ticks(1);

  // Deadlines out of arrival order; request 2 has a different shape.
  ASSERT_EQ(m.offer(make_request(0, "m", 0, 90), 0), serve::ShedReason::kNone);
  ASSERT_EQ(m.offer(make_request(1, "m", 1, 40), 1), serve::ShedReason::kNone);
  ASSERT_EQ(m.offer(make_request(2, "m", 2, 10, Shape{3, 4, 4}), 2),
            serve::ShedReason::kNone);
  ASSERT_EQ(m.offer(make_request(3, "m", 3, 40), 3), serve::ShedReason::kNone);
  ASSERT_EQ(m.offer(make_request(4, "m", 4, 60), 4), serve::ShedReason::kNone);

  EXPECT_EQ(m.oldest_deadline(), 10);

  // Pivot is id 2 (deadline 10); only the other {3,4,4} shapes may join —
  // there are none, so it dispatches alone and everyone else keeps place.
  auto b1 = m.pop_batch();
  ASSERT_EQ(b1.size(), 1u);
  EXPECT_EQ(b1[0].id, 2);

  // Next pivot is deadline 40; arrival order breaks the 1-vs-3 tie; the
  // max_batch cap of 3 admits deadline-60 as well, leaving deadline-90.
  auto b2 = m.pop_batch();
  ASSERT_EQ(b2.size(), 3u);
  EXPECT_EQ(b2[0].id, 1);
  EXPECT_EQ(b2[1].id, 3);
  EXPECT_EQ(b2[2].id, 4);

  auto b3 = m.pop_batch();
  ASSERT_EQ(b3.size(), 1u);
  EXPECT_EQ(b3[0].id, 0);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.popped(), 5);
}

// --- Scheduler -----------------------------------------------------------

TEST(Scheduler, DispatchesFullBatchesAndForcedDeadlines) {
  serve::Mailbox m("m", /*max_queue=*/64, /*max_batch=*/2);
  m.set_batch_service_ticks(5);
  serve::Scheduler sched;

  EXPECT_FALSE(sched.due(m, 0));
  ASSERT_EQ(m.offer(make_request(0, "m", 0, 100), 0), serve::ShedReason::kNone);
  // One queued request, deadline far out: not due until 100 - 5 = 95.
  EXPECT_FALSE(sched.due(m, 94));
  EXPECT_TRUE(sched.due(m, 95));
  // A full batch dispatches immediately regardless of deadlines.
  ASSERT_EQ(m.offer(make_request(1, "m", 1, 100), 1), serve::ShedReason::kNone);
  EXPECT_TRUE(sched.due(m, 1));
}

TEST(Scheduler, RoundRobinInterleavesTenantsAndSkipsUnpublished) {
  serve::Mailbox m1("a", /*max_queue=*/64, /*max_batch=*/2);
  serve::Mailbox m2("b", /*max_queue=*/64, /*max_batch=*/2);
  m1.set_batch_service_ticks(1);
  m2.set_batch_service_ticks(1);
  for (std::int64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(m1.offer(make_request(i, "a", i, i + 2), i),
              serve::ShedReason::kNone);
    ASSERT_EQ(m2.offer(make_request(10 + i, "b", i, i + 2), i),
              serve::ShedReason::kNone);
  }

  serve::LeaseTable leases;
  serve::Scheduler sched;
  // No tenant has published weights yet: nothing forms, requests wait.
  EXPECT_TRUE(sched.form(10, {&m1, &m2}, leases).empty());
  EXPECT_EQ(m1.size() + m2.size(), 8);

  auto va = std::make_shared<serve::ModelVersion>();
  auto vb = std::make_shared<serve::ModelVersion>();
  leases.publish("a", va);
  leases.publish("b", vb);
  auto plans = sched.form(10, {&m1, &m2}, leases);
  ASSERT_EQ(plans.size(), 4u);
  // Rounds interleave — no tenant monopolizes a burst. The empty form()
  // above already advanced the persistent cursor by one, so "b" leads.
  EXPECT_EQ(plans[0].model, "b");
  EXPECT_EQ(plans[1].model, "a");
  EXPECT_EQ(plans[2].model, "b");
  EXPECT_EQ(plans[3].model, "a");
  for (const auto& p : plans) EXPECT_EQ(p.requests.size(), 2u);
  EXPECT_EQ(plans[0].batch_id, 0);
  EXPECT_EQ(plans[3].batch_id, 3);
}

// --- LeaseTable ----------------------------------------------------------

TEST(LeaseTable, EpochsAdvanceAndRetirementWaitsForPins) {
  serve::LeaseTable t;
  EXPECT_EQ(t.epoch("m"), -1);
  EXPECT_FALSE(t.has("m"));
  EXPECT_EQ(t.acquire("m"), nullptr);

  t.publish("m", std::make_shared<serve::ModelVersion>());
  EXPECT_EQ(t.epoch("m"), 0);
  auto pin = t.acquire("m");  // an in-flight batch pins epoch 0
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->lease_epoch, 0);

  t.publish("m", std::make_shared<serve::ModelVersion>());
  EXPECT_EQ(t.epoch("m"), 1);
  EXPECT_EQ(t.acquire("m")->lease_epoch, 1);
  EXPECT_EQ(t.pending_retirement(), 1);
  EXPECT_EQ(t.sweep_retired(), 0);  // the pin still holds epoch 0 alive

  pin.reset();  // in-flight batch completes
  EXPECT_EQ(t.sweep_retired(), 1);
  EXPECT_EQ(t.pending_retirement(), 0);
  EXPECT_EQ(t.retired(), 1);
  EXPECT_EQ(t.publishes(), 2);
}

// --- Materialization (satellite 1) --------------------------------------

TEST(Materialize, UnionFormPreservesOutputsBitwise) {
  auto net = tiny_net();
  exec::ExecContext ctx(1);
  Rng rng(7);
  Tensor x = Tensor::randn({4, kInput[0], kInput[1], kInput[2]}, rng);
  const Tensor before = net.forward(ctx, x, false).clone();

  const auto stats =
      prune::materialize_inference(net, prune::InferenceForm::kChannelUnion);
  EXPECT_EQ(stats.form, prune::InferenceForm::kChannelUnion);
  EXPECT_GT(stats.conv_layers, 0);
  EXPECT_GT(stats.channels, 0);

  const Tensor after = net.forward(ctx, x, false);
  ASSERT_EQ(after.shape(), before.shape());
  EXPECT_EQ(std::memcmp(after.data(), before.data(),
                        sizeof(float) * static_cast<std::size_t>(after.numel())),
            0);
}

// --- Generation listing + registry ---------------------------------------

TEST(Registry, ListGenerationsSortsAndIgnoresForeignFiles) {
  const fs::path dir = scratch_dir("list");
  auto net = tiny_net();
  write_generation(dir, 12, net);
  write_generation(dir, 2, net);
  ckpt::Checkpoint::capture(net).save((dir / "ckpt-latest.bin").string());
  std::ofstream(dir / "ckpt-epoch-9.bin.tmp") << "partial";
  std::ofstream(dir / "notes.txt") << "hi";

  const auto gens = ckpt::list_generations(dir.string());
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0].epoch, 2);
  EXPECT_EQ(gens[1].epoch, 12);
  EXPECT_TRUE(ckpt::Checkpoint::probe(gens[0].path));
  EXPECT_FALSE(ckpt::Checkpoint::probe((dir / "notes.txt").string()));
  EXPECT_TRUE(ckpt::list_generations((dir / "missing").string()).empty());
  fs::remove_all(dir);
}

TEST(Registry, PollSkipsCorruptGenerationsAndPricesSwaps) {
  const fs::path dir = scratch_dir("poll");
  auto v1 = tiny_net(0.5f, 21);
  write_generation(dir, 1, v1);
  // A torn/bit-rotted generation: newest by epoch, but must never serve.
  std::ofstream(dir / "ckpt-epoch-2.bin") << "garbage bytes, no CRC";

  serve::RegistryConfig cfg;
  cfg.flops_per_tick = cost::FlopsModel(v1, kInput).inference_flops();
  serve::ModelRegistry reg(cfg);
  reg.add_model("m", dir.string(), kInput);
  serve::LeaseTable leases;
  exec::ExecContext ctx(1);

  auto swaps = reg.poll(ctx, leases);
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0].to_generation, 1);
  EXPECT_EQ(reg.served_generation("m"), 1);
  EXPECT_EQ(leases.epoch("m"), 0);
  // Full batch of the v1-priced model: max_batch * flops / flops_per_tick.
  EXPECT_EQ(swaps[0].service_ticks_per_batch, cfg.max_batch);

  // The scrubber's ledger shows the corrupt generation scrubbed + invalid.
  const auto* scrubber = reg.scrubber("m");
  ASSERT_NE(scrubber, nullptr);
  bool saw_corrupt = false;
  for (const auto& g : scrubber->generations()) {
    if (g.epoch == 2) {
      saw_corrupt = true;
      EXPECT_TRUE(g.scrubbed);
      EXPECT_FALSE(g.valid);
    }
  }
  EXPECT_TRUE(saw_corrupt);

  // Nothing new: no swap. A narrower (pruned) valid generation: swap, and
  // the modeled batch service time shrinks with the FLOPs.
  EXPECT_TRUE(reg.poll(ctx, leases).empty());
  auto v3 = tiny_net(0.25f, 22);
  write_generation(dir, 3, v3);
  swaps = reg.poll(ctx, leases);
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0].from_generation, 1);
  EXPECT_EQ(swaps[0].to_generation, 3);
  EXPECT_LT(swaps[0].inference_flops, cfg.flops_per_tick);
  EXPECT_LT(swaps[0].service_ticks_per_batch, cfg.max_batch);
  EXPECT_EQ(leases.epoch("m"), 1);
  fs::remove_all(dir);
}

// --- End-to-end runtime --------------------------------------------------

serve::ServeConfig runtime_config(int workers) {
  serve::ServeConfig cfg;
  cfg.workers = workers;
  cfg.max_batch = 4;
  cfg.max_queue = 256;
  cfg.flops_per_tick = 2e6;
  return cfg;
}

std::vector<serve::Request> two_tenant_trace() {
  serve::TraceSpec a;
  a.model = "a";
  a.mean_interarrival = 4.0;
  a.end = 240;
  a.deadline = 40;
  a.input = kInput;
  a.seed = 11;
  serve::TraceSpec b = a;
  b.model = "b";
  b.mean_interarrival = 6.0;
  b.seed = 12;
  return serve::synthesize_trace({a, b});
}

TEST(ServeRuntime, WorkerAndThreadCountsAreBitwiseInvisible) {
  const auto trace = two_tenant_trace();
  auto run_at = [&](int workers, int threads) {
    exec::ExecContext ctx(threads);
    serve::ServeRuntime rt(runtime_config(workers), ctx);
    rt.publish_network("a", tiny_net(0.5f, 21), 1, kInput);
    rt.publish_network("b", tiny_net(0.5f, 33), 1, kInput);
    return rt.run(trace);
  };
  const auto base = run_at(1, 1);
  const auto wide = run_at(4, 4);

  EXPECT_EQ(base.dropped, 0);
  EXPECT_EQ(wide.dropped, 0);
  EXPECT_GT(base.batches, 0);
  ASSERT_EQ(base.responses.size(), trace.size());
  ASSERT_EQ(wide.responses.size(), trace.size());
  EXPECT_EQ(base.batches, wide.batches);
  EXPECT_EQ(base.shed, wide.shed);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& r1 = base.responses[i];
    const auto& r2 = wide.responses[i];
    // Payload + scheduling identity: identical at any worker/thread count.
    ASSERT_EQ(r1.request_id, r2.request_id);
    EXPECT_EQ(r1.shed, r2.shed);
    EXPECT_EQ(r1.reason, r2.reason);
    EXPECT_EQ(r1.batch_id, r2.batch_id);
    EXPECT_EQ(r1.formed, r2.formed);
    EXPECT_EQ(r1.generation, r2.generation);
    EXPECT_EQ(r1.lease_epoch, r2.lease_epoch);
    EXPECT_EQ(r1.argmax, r2.argmax);
    if (!r1.shed) {
      ASSERT_EQ(r1.logits.shape(), r2.logits.shape());
      EXPECT_EQ(std::memcmp(r1.logits.data(), r2.logits.data(),
                            sizeof(float) *
                                static_cast<std::size_t>(r1.logits.numel())),
                0)
          << "logits diverged for request " << r1.request_id;
    }
    // Only the clock columns may move (more workers = earlier starts).
    EXPECT_LE(r2.completion, r1.completion);
  }
}

TEST(ServeRuntime, OverloadShedsButNeverDrops) {
  // Five overlapping arrival processes on one tenant: several requests can
  // land on the same tick, which is the only way to outpace formation —
  // batches form every tick regardless of worker backlog (by design), so
  // a one-per-tick stream never fills the queue.
  std::vector<serve::TraceSpec> specs(5);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].model = "m";
    specs[i].mean_interarrival = 1.0;
    specs[i].end = 150;
    specs[i].deadline = 40;
    specs[i].input = kInput;
    specs[i].seed = 5 + i;
  }
  const auto trace = serve::synthesize_trace(specs);

  exec::ExecContext ctx(1);
  auto cfg = runtime_config(2);
  cfg.max_queue = 6;
  auto net = tiny_net();
  // Slow modeled workers: a full batch costs 16 ticks while requests land
  // about every tick, so the backlog hits the depth bound and sheds.
  cfg.flops_per_tick =
      cost::FlopsModel(net, kInput).inference_flops() / 4.0;
  serve::ServeRuntime rt(cfg, ctx);
  rt.publish_network("m", std::move(net), 1, kInput);
  const auto report = rt.run(trace);

  EXPECT_GT(report.shed, 0);
  EXPECT_EQ(report.requests, static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(report.admitted + report.shed, report.requests);
  // The zero-drop invariant: everything admitted completes, overload or not.
  EXPECT_EQ(report.dropped, 0);
  EXPECT_EQ(report.admitted, report.completed);
  ASSERT_EQ(report.responses.size(), trace.size());
  for (const auto& r : report.responses) {
    if (r.shed) {
      EXPECT_TRUE(r.reason == serve::ShedReason::kQueueFull ||
                  r.reason == serve::ShedReason::kInfeasibleDeadline);
    } else {
      EXPECT_GE(r.completion, r.arrival);
    }
  }
}

TEST(ServeRuntime, UnknownTenantIsShedStructurally) {
  exec::ExecContext ctx(1);
  serve::ServeRuntime rt(runtime_config(1), ctx);
  rt.publish_network("known", tiny_net(), 1, kInput);
  std::vector<serve::Request> trace;
  trace.push_back(make_request(0, "known", 0, 40));
  trace.push_back(make_request(1, "ghost", 1, 40));
  const auto report = rt.run(trace);
  ASSERT_EQ(report.responses.size(), 2u);
  EXPECT_FALSE(report.responses[0].shed);
  EXPECT_TRUE(report.responses[1].shed);
  EXPECT_EQ(report.responses[1].reason, serve::ShedReason::kUnknownModel);
  EXPECT_EQ(report.dropped, 0);
}

TEST(ServeRuntime, HotSwapUnderLoadDropsNothingAndMatchesColdServe) {
  const fs::path hot_dir = scratch_dir("hot");
  const fs::path cold_dir = scratch_dir("cold");
  auto gen1 = tiny_net(0.5f, 21);
  auto gen2 = tiny_net(0.25f, 22);  // the "freshly pruned" generation
  write_generation(hot_dir, 1, gen1);
  write_generation(cold_dir, 2, gen2);

  serve::TraceSpec spec;
  spec.model = "m";
  spec.mean_interarrival = 3.0;
  spec.end = 600;
  spec.deadline = 60;
  spec.input = kInput;
  spec.seed = 9;
  const auto trace = serve::synthesize_trace({spec});
  const serve::Tick swap_at = 300;

  auto cfg = runtime_config(2);
  cfg.poll_interval = 5;

  // Hot: serve generation 1, drop generation 2's file mid-trace.
  exec::ExecContext ctx(1);
  serve::ServeRuntime hot(cfg, ctx);
  hot.add_model("m", hot_dir.string(), kInput);
  hot.schedule(swap_at, [&] {
    fs::copy_file(cold_dir / "ckpt-epoch-2.bin", hot_dir / "ckpt-epoch-2.bin");
  });
  const auto hot_report = hot.run(trace);

  // The swap happened at the first poll boundary at/after the file drop,
  // with live traffic on both sides of it.
  ASSERT_EQ(hot_report.swaps.size(), 2u);  // cold start + the hot swap
  const auto& swap = hot_report.swaps[1];
  EXPECT_EQ(swap.record.from_generation, 1);
  EXPECT_EQ(swap.record.to_generation, 2);
  EXPECT_EQ(swap.record.lease_epoch, 1);
  EXPECT_GE(swap.tick, swap_at);
  EXPECT_LT(swap.tick, swap_at + cfg.poll_interval + 1);

  // Zero-drop: every request resolved, nothing lost at the boundary.
  EXPECT_EQ(hot_report.shed, 0);
  EXPECT_EQ(hot_report.dropped, 0);
  EXPECT_EQ(hot_report.admitted, hot_report.completed);
  ASSERT_EQ(hot_report.responses.size(), trace.size());
  // The superseded lease retired once its last in-flight batch drained.
  EXPECT_EQ(hot_report.leases_retired, 1);

  std::int64_t on_gen1 = 0, on_gen2 = 0;
  for (const auto& r : hot_report.responses) {
    ASSERT_FALSE(r.shed);
    if (r.generation == 1) {
      EXPECT_EQ(r.lease_epoch, 0);
      EXPECT_LT(r.formed, swap.tick);
      ++on_gen1;
    } else {
      ASSERT_EQ(r.generation, 2);
      EXPECT_EQ(r.lease_epoch, 1);
      EXPECT_GE(r.formed, swap.tick);
      ++on_gen2;
    }
  }
  EXPECT_GT(on_gen1, 0);
  EXPECT_GT(on_gen2, 0);

  // Cold: a fresh runtime that served generation 2 from tick 0. Every
  // hot-run response formed after the swap must be bitwise identical to
  // the cold run's response for the same request — the swap boundary is
  // invisible to the payload.
  exec::ExecContext cold_ctx(1);
  serve::ServeRuntime cold(cfg, cold_ctx);
  cold.add_model("m", cold_dir.string(), kInput);
  const auto cold_report = cold.run(trace);
  ASSERT_EQ(cold_report.responses.size(), trace.size());
  EXPECT_EQ(cold_report.dropped, 0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& h = hot_report.responses[i];
    if (h.generation != 2) continue;
    const auto& c = cold_report.responses[i];
    ASSERT_FALSE(c.shed);
    ASSERT_EQ(c.generation, 2);
    EXPECT_EQ(h.argmax, c.argmax);
    ASSERT_EQ(h.logits.shape(), c.logits.shape());
    EXPECT_EQ(std::memcmp(h.logits.data(), c.logits.data(),
                          sizeof(float) *
                              static_cast<std::size_t>(h.logits.numel())),
              0)
        << "post-swap logits differ from cold serve for request "
        << h.request_id;
  }

  fs::remove_all(hot_dir);
  fs::remove_all(cold_dir);
}

TEST(ServeRuntime, ReplaysBitwiseIdentically) {
  const auto trace = two_tenant_trace();
  auto run_once = [&] {
    exec::ExecContext ctx(2);
    serve::ServeRuntime rt(runtime_config(2), ctx);
    rt.publish_network("a", tiny_net(0.5f, 21), 1, kInput);
    rt.publish_network("b", tiny_net(0.5f, 33), 1, kInput);
    return rt.run(trace);
  };
  const auto r1 = run_once();
  const auto r2 = run_once();
  ASSERT_EQ(r1.responses.size(), r2.responses.size());
  EXPECT_EQ(r1.batches, r2.batches);
  EXPECT_EQ(r1.last_completion, r2.last_completion);
  for (std::size_t i = 0; i < r1.responses.size(); ++i) {
    const auto& a = r1.responses[i];
    const auto& b = r2.responses[i];
    EXPECT_EQ(a.batch_id, b.batch_id);
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.completion, b.completion);
    if (!a.shed) {
      EXPECT_EQ(std::memcmp(a.logits.data(), b.logits.data(),
                            sizeof(float) *
                                static_cast<std::size_t>(a.logits.numel())),
                0);
    }
  }
}

TEST(ServeRuntime, ConfigValidationFailsFast) {
  serve::ServeConfig cfg;
  cfg.workers = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = serve::ServeConfig{};
  cfg.flops_per_tick = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = serve::ServeConfig{};
  cfg.max_batch = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // The inherited RegistryConfig checks run too, the canary's included.
  cfg = serve::ServeConfig{};
  cfg.canary.max_disagreement = 1.5;
  try {
    cfg.validate();
    ADD_FAILURE() << "canary.max_disagreement should have been rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("CanaryConfig: max_disagreement"),
              std::string::npos)
        << e.what();
  }

  exec::ExecContext ctx(1);
  serve::ServeRuntime rt(serve::ServeConfig{}, ctx);
  rt.publish_network("m", tiny_net(), 1, kInput);
  rt.run({});
  EXPECT_THROW(rt.run({}), std::logic_error);  // one-shot
}

TEST(ServeRuntime, ConfigRejectsFaultKindsTheRuntimeNeverQueries) {
  // Only the serve-batch kinds have a consumer in the runtime; any other
  // clause would arm and never fire.
  for (const std::string clause :
       {"nan-grad", "kill-replica:replica=1", "poison-ckpt:epoch=2"}) {
    SCOPED_TRACE(clause);
    serve::ServeConfig cfg;
    cfg.fault_spec = "slow-model:epoch=2;" + clause;
    try {
      cfg.validate();
      ADD_FAILURE() << "accepted a clause the runtime never queries";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + clause + "'"),
                std::string::npos)
          << e.what();
    }
  }
  serve::ServeConfig cfg;
  cfg.fault_spec = "slow-model:epoch=2,scale=4;flaky-output:step=3";
  EXPECT_NO_THROW(cfg.validate());
}

// --- Serving resilience (ISSUE 10) ---------------------------------------

std::shared_ptr<serve::ModelVersion> bare_version(graph::Network net,
                                                  serve::Tick ticks = 8) {
  auto v = std::make_shared<serve::ModelVersion>();
  v->net = std::move(net);
  v->service_ticks_per_batch = ticks;
  return v;
}

TEST(CanaryGate, FiniteLogitCheckCatchesPoisonedHead) {
  exec::ExecContext ctx(1);
  serve::CanaryGate gate(serve::CanaryConfig{});
  auto incumbent = bare_version(tiny_net(0.5f, 21));

  // A healthy candidate with totally different weights passes the default
  // gate: only the finite-logit check is always on.
  auto healthy = bare_version(tiny_net(0.25f, 22));
  auto rep = gate.evaluate(*healthy, incumbent.get(), kInput, ctx);
  EXPECT_EQ(rep.outcome, serve::CanaryOutcome::kAccepted);
  EXPECT_TRUE(rep.accepted());

  // A poisoned head carries a valid CRC but NaN logits: rejected.
  auto poisoned = bare_version(tiny_net(0.5f, 22));
  auto inj = robust::FaultInjector::from_string("poison-ckpt", 7);
  ASSERT_TRUE(inj.poison_network(poisoned->net, 0));
  rep = gate.evaluate(*poisoned, incumbent.get(), kInput, ctx);
  EXPECT_EQ(rep.outcome, serve::CanaryOutcome::kNonFiniteOutput);
  EXPECT_FALSE(rep.accepted());

  // A disabled gate waves anything through, reported as kSkipped.
  serve::CanaryConfig off;
  off.enabled = false;
  rep = serve::CanaryGate(off).evaluate(*poisoned, incumbent.get(), kInput,
                                        ctx);
  EXPECT_EQ(rep.outcome, serve::CanaryOutcome::kSkipped);
  EXPECT_TRUE(rep.accepted());
}

TEST(CanaryGate, DisagreementAndLatencyBudgetsReject) {
  exec::ExecContext ctx(1);
  auto incumbent = bare_version(tiny_net(0.5f, 21), 8);

  // Finite garbage head (poison-ckpt with scale=): every logit is finite,
  // so only the reference-disagreement check can see the corruption.
  auto garbage = bare_version(tiny_net(0.5f, 21), 8);
  auto inj = robust::FaultInjector::from_string("poison-ckpt:scale=100", 7);
  ASSERT_TRUE(inj.poison_network(garbage->net, 0));
  serve::CanaryConfig strict;
  strict.max_disagreement = 0.0;
  auto rep = serve::CanaryGate(strict).evaluate(*garbage, incumbent.get(),
                                                kInput, ctx);
  EXPECT_EQ(rep.outcome, serve::CanaryOutcome::kDisagreement);
  EXPECT_GT(rep.disagreements, 0);
  // The default budget (1.0) never rejects on disagreement.
  rep = serve::CanaryGate(serve::CanaryConfig{})
            .evaluate(*garbage, incumbent.get(), kInput, ctx);
  EXPECT_EQ(rep.outcome, serve::CanaryOutcome::kAccepted);

  // Modeled-latency regression beyond the opt-in budget.
  serve::CanaryConfig lat;
  lat.max_latency_ratio = 2.0;
  auto slow = bare_version(tiny_net(0.5f, 21), 100);
  rep = serve::CanaryGate(lat).evaluate(*slow, incumbent.get(), kInput, ctx);
  EXPECT_EQ(rep.outcome, serve::CanaryOutcome::kLatencyRegression);
  EXPECT_GT(rep.latency_ratio, 2.0);
}

TEST(GenerationHealth, WindowedCountersClearAndReset) {
  serve::GenerationHealthConfig cfg;
  cfg.window = 10;
  cfg.max_nan_batches = 0;
  cfg.max_deadline_misses = 1;
  serve::GenerationHealth h(cfg);
  EXPECT_EQ(h.breach(0), nullptr);

  h.record_batch(5, true, 0);
  EXPECT_STREQ(h.breach(5), "nan-output");
  // The verdict expires with the window (tick 5 <= 50 - 10).
  EXPECT_EQ(h.breach(50), nullptr);

  h.record_batch(51, false, 1);
  EXPECT_EQ(h.breach(51), nullptr);  // 1 miss <= budget 1
  h.record_batch(52, false, 3);
  EXPECT_STREQ(h.breach(52), "deadline-miss");
  h.reset();
  EXPECT_EQ(h.breach(52), nullptr);
  EXPECT_EQ(h.nan_batches(), 1);     // lifetime totals survive resets
  EXPECT_EQ(h.modeled_misses(), 4);
}

TEST(CircuitBreaker, ClosedOpenHalfOpenCycleIsDeterministic) {
  serve::BreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.open_ticks = 10;
  cfg.half_open_probes = 1;
  cfg.close_after = 1;
  serve::CircuitBreaker b(cfg);

  EXPECT_EQ(b.state(), serve::BreakerState::kClosed);
  EXPECT_EQ(b.admit(0), serve::CircuitBreaker::Admission::kAdmit);
  b.on_batch(0, false);
  EXPECT_EQ(b.state(), serve::BreakerState::kClosed);  // 1 failure < 2
  b.on_batch(1, true);  // a healthy batch clears the consecutive count
  b.on_batch(2, false);
  b.on_batch(3, false);
  ASSERT_EQ(b.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(b.admit(4), serve::CircuitBreaker::Admission::kShed);
  // Cooldown elapsed at 3 + 10: the next arrival is a half-open probe,
  // and the probe budget (1) sheds the arrival after it.
  EXPECT_EQ(b.admit(13), serve::CircuitBreaker::Admission::kProbe);
  EXPECT_EQ(b.state(), serve::BreakerState::kHalfOpen);
  EXPECT_EQ(b.admit(13), serve::CircuitBreaker::Admission::kShed);
  // Unhealthy probe batch reopens; a later healthy probe round closes.
  b.on_batch(14, false);
  ASSERT_EQ(b.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(b.admit(24), serve::CircuitBreaker::Admission::kProbe);
  b.on_batch(25, true);
  EXPECT_EQ(b.state(), serve::BreakerState::kClosed);

  const auto& t = b.transitions();
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[0].to, serve::BreakerState::kOpen);
  EXPECT_EQ(t[1].to, serve::BreakerState::kHalfOpen);
  EXPECT_EQ(t[2].to, serve::BreakerState::kOpen);
  EXPECT_EQ(t[3].to, serve::BreakerState::kHalfOpen);
  EXPECT_EQ(t[4].to, serve::BreakerState::kClosed);
}

TEST(Registry, TornGenerationIsQuarantinedLoudlyOnce) {
  const fs::path dir = scratch_dir("torn");
  auto v1 = tiny_net(0.5f, 21);
  write_generation(dir, 1, v1);
  auto v2 = tiny_net(0.5f, 22);
  write_generation(dir, 2, v2);
  // Tear generation 2 through its CRC footer — the producer-side fault a
  // process dying mid-save leaves behind.
  auto inj = robust::FaultInjector::from_string("torn-ckpt:epoch=2", 5);
  ASSERT_TRUE(inj.corrupt_checkpoint_files(
      {(dir / "ckpt-epoch-2.bin").string()}, 2));

  serve::ModelRegistry reg(serve::RegistryConfig{});
  reg.add_model("m", dir.string(), kInput);
  serve::LeaseTable leases;
  exec::ExecContext ctx(1);
  auto swaps = reg.poll(ctx, leases);
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0].to_generation, 1);

  ASSERT_EQ(reg.quarantined().size(), 1u);
  EXPECT_EQ(reg.quarantined()[0].generation, 2);
  EXPECT_EQ(reg.quarantined()[0].reason, "scrub-invalid");
  // A second poll does not re-announce the same corpse.
  write_generation(dir, 3, v2);  // force a rescan with a new valid file
  swaps = reg.poll(ctx, leases);
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0].to_generation, 3);
  EXPECT_EQ(reg.quarantined().size(), 1u);
  fs::remove_all(dir);
}

TEST(ServeRuntime, PoisonedGenerationIsCanaryRejectedNeverServed) {
  const fs::path dir = scratch_dir("poison");
  auto gen1 = tiny_net(0.5f, 21);
  write_generation(dir, 1, gen1);

  serve::TraceSpec spec;
  spec.model = "m";
  spec.mean_interarrival = 3.0;
  spec.end = 300;
  spec.deadline = 60;
  spec.input = kInput;
  spec.seed = 9;
  const auto trace = serve::synthesize_trace({spec});

  auto cfg = runtime_config(2);
  cfg.poll_interval = 5;
  exec::ExecContext ctx(1);
  serve::ServeRuntime rt(cfg, ctx);
  rt.add_model("m", dir.string(), kInput);
  rt.schedule(100, [&] {
    // The trainer saves a generation whose head was silently corrupted:
    // the file's CRC is valid, the numbers are not.
    auto net = tiny_net(0.5f, 22);
    auto inj = robust::FaultInjector::from_string("poison-ckpt:epoch=2", 7);
    ASSERT_TRUE(inj.poison_network(net, 2));
    write_generation(dir, 2, net);
  });
  const auto report = rt.run(trace);

  // The scrub passed it (bytes fine), the canary refused it (numbers not):
  // generation 2 is never observable in any response.
  ASSERT_EQ(report.swaps.size(), 1u);  // cold start only
  EXPECT_EQ(report.swaps[0].record.to_generation, 1);
  for (const auto& r : report.responses) {
    if (!r.shed) {
      EXPECT_EQ(r.generation, 1);
    }
  }
  EXPECT_EQ(report.dropped, 0);
  EXPECT_GT(report.completed, 0);
  ASSERT_GE(report.quarantined, 1);
  ASSERT_EQ(rt.registry().quarantined().size(), 1u);
  const auto& q = rt.registry().quarantined()[0];
  EXPECT_EQ(q.generation, 2);
  EXPECT_EQ(q.reason, "canary:non-finite-output");
  EXPECT_EQ(q.canary.outcome, serve::CanaryOutcome::kNonFiniteOutput);
  // The file itself scrubbed valid — this was not a CRC catch.
  const auto* scrubber = rt.registry().scrubber("m");
  ASSERT_NE(scrubber, nullptr);
  for (const auto& g : scrubber->generations()) {
    if (g.epoch == 2) {
      EXPECT_TRUE(g.valid);
    }
  }
  ASSERT_EQ(report.health_events.size(), 1u);
  EXPECT_EQ(report.health_events[0].type,
            robust::EventType::kCanaryRejected);
  fs::remove_all(dir);
}

TEST(ServeRuntime, FlakyOutputRollsBackBitwiseEqualToCleanRun) {
  const fs::path dir = scratch_dir("rollback");
  const fs::path ref_dir = scratch_dir("rollback_ref");
  auto gen1 = tiny_net(0.5f, 21);
  write_generation(dir, 1, gen1);
  write_generation(ref_dir, 1, gen1);

  serve::TraceSpec spec;
  spec.model = "m";
  spec.mean_interarrival = 3.0;
  spec.end = 600;
  spec.deadline = 60;
  spec.input = kInput;
  spec.seed = 9;
  const auto trace = serve::synthesize_trace({spec});

  auto make_cfg = [&](int workers) {
    auto cfg = runtime_config(workers);
    cfg.poll_interval = 5;
    // Generation 3's very first served batch emits one NaN logit.
    cfg.fault_spec = "flaky-output:epoch=3,count=1";
    return cfg;
  };
  // Generation 2 is poisoned (canary rejects it at the gate); generation 3
  // is healthy at rest — same width as generation 1, so pricing, admission
  // and batch composition are identical — but flaky at runtime.
  exec::ExecContext ctx(1);
  serve::ServeRuntime rt(make_cfg(2), ctx);
  rt.add_model("m", dir.string(), kInput);
  rt.schedule(150, [&] {
    auto bad = tiny_net(0.5f, 22);
    auto inj = robust::FaultInjector::from_string("poison-ckpt:epoch=2", 7);
    ASSERT_TRUE(inj.poison_network(bad, 2));
    write_generation(dir, 2, bad);
  });
  rt.schedule(200, [&] {
    auto gen3 = tiny_net(0.5f, 23);
    write_generation(dir, 3, gen3);
  });
  const auto faulty = rt.run(trace);

  // One rollback: generation 3 indicted by its NaN batch, generation 1
  // restored; the poisoned generation 2 never served at all.
  ASSERT_EQ(faulty.rollbacks.size(), 1u);
  const auto& rb = faulty.rollbacks[0];
  EXPECT_EQ(rb.from_generation, 3);
  EXPECT_EQ(rb.to_generation, 1);
  EXPECT_EQ(rb.reason, "nan-output");
  EXPECT_EQ(faulty.dropped, 0);
  EXPECT_GE(faulty.quarantined, 2);  // canary reject + rollback indictment
  std::int64_t on_gen3 = 0;
  for (const auto& r : faulty.responses) {
    EXPECT_NE(r.generation, 2);
    on_gen3 += (!r.shed && r.generation == 3) ? 1 : 0;
  }
  EXPECT_GT(on_gen3, 0);  // the bad generation really did serve briefly
  bool saw_rollback_event = false;
  for (const auto& ev : faulty.health_events) {
    saw_rollback_event |= ev.type == robust::EventType::kGenerationRollback;
  }
  EXPECT_TRUE(saw_rollback_event);

  // Reference: the same trace against a runtime that only ever had
  // generation 1. Every response formed at/after the rollback tick must be
  // bitwise identical — the rollback restored the *same weights object*
  // the old epoch served, so the bad generation leaves no numeric residue.
  exec::ExecContext ref_ctx(1);
  auto ref_cfg = runtime_config(2);
  ref_cfg.poll_interval = 5;
  serve::ServeRuntime ref_rt(ref_cfg, ref_ctx);
  ref_rt.add_model("m", ref_dir.string(), kInput);
  const auto clean = ref_rt.run(trace);
  ASSERT_EQ(clean.responses.size(), faulty.responses.size());
  std::int64_t compared = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& f = faulty.responses[i];
    const auto& c = clean.responses[i];
    ASSERT_EQ(f.request_id, c.request_id);
    // Batches formed at the rollback tick itself still pinned the bad
    // lease (formation runs before the breach verdict that tick).
    if (f.shed || f.formed <= rb.tick) continue;
    ++compared;
    EXPECT_EQ(f.generation, 1);
    EXPECT_EQ(f.argmax, c.argmax);
    ASSERT_EQ(f.logits.shape(), c.logits.shape());
    EXPECT_EQ(std::memcmp(f.logits.data(), c.logits.data(),
                          sizeof(float) *
                              static_cast<std::size_t>(f.logits.numel())),
              0)
        << "post-rollback logits differ from the clean run for request "
        << f.request_id;
  }
  EXPECT_GT(compared, 0);

  // Worker count cannot move the breach, the rollback tick, or a payload.
  const fs::path wide_dir = scratch_dir("rollback_wide");
  write_generation(wide_dir, 1, gen1);
  exec::ExecContext wide_ctx(1);
  serve::ServeRuntime wide_rt(make_cfg(4), wide_ctx);
  wide_rt.add_model("m", wide_dir.string(), kInput);
  wide_rt.schedule(150, [&] {
    auto bad = tiny_net(0.5f, 22);
    auto inj = robust::FaultInjector::from_string("poison-ckpt:epoch=2", 7);
    ASSERT_TRUE(inj.poison_network(bad, 2));
    write_generation(wide_dir, 2, bad);
  });
  wide_rt.schedule(200, [&] {
    auto gen3 = tiny_net(0.5f, 23);
    write_generation(wide_dir, 3, gen3);
  });
  const auto wide = wide_rt.run(trace);
  ASSERT_EQ(wide.rollbacks.size(), 1u);
  EXPECT_EQ(wide.rollbacks[0].tick, rb.tick);
  EXPECT_EQ(wide.rollbacks[0].from_generation, rb.from_generation);
  EXPECT_EQ(wide.rollbacks[0].to_generation, rb.to_generation);
  ASSERT_EQ(wide.responses.size(), faulty.responses.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& a = faulty.responses[i];
    const auto& b = wide.responses[i];
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.generation, b.generation);
    EXPECT_EQ(a.argmax, b.argmax);
    if (!a.shed) {
      EXPECT_EQ(std::memcmp(a.logits.data(), b.logits.data(),
                            sizeof(float) *
                                static_cast<std::size_t>(a.logits.numel())),
                0);
    }
  }

  fs::remove_all(dir);
  fs::remove_all(ref_dir);
  fs::remove_all(wide_dir);
}

TEST(ServeRuntime, SlowModelDeadlineBreachTriggersRollback) {
  const fs::path dir = scratch_dir("slow");
  auto gen1 = tiny_net(0.5f, 21);
  write_generation(dir, 1, gen1);

  serve::TraceSpec spec;
  spec.model = "m";
  spec.mean_interarrival = 3.0;
  spec.end = 500;
  spec.deadline = 60;
  spec.input = kInput;
  spec.seed = 9;
  const auto trace = serve::synthesize_trace({spec});

  auto cfg = runtime_config(2);
  cfg.poll_interval = 5;
  // Opt in to the deadline-miss breach: generation 2 is the suspect.
  cfg.health.max_deadline_misses = 0;
  // Every generation-2 batch is inflated 50x on the modeled clock.
  cfg.fault_spec = "slow-model:epoch=2,scale=50,count=0";
  exec::ExecContext ctx(1);
  serve::ServeRuntime rt(cfg, ctx);
  rt.add_model("m", dir.string(), kInput);
  rt.schedule(150, [&] {
    auto gen2 = tiny_net(0.5f, 22);
    write_generation(dir, 2, gen2);
  });
  const auto report = rt.run(trace);

  ASSERT_EQ(report.rollbacks.size(), 1u);
  EXPECT_EQ(report.rollbacks[0].from_generation, 2);
  EXPECT_EQ(report.rollbacks[0].to_generation, 1);
  EXPECT_EQ(report.rollbacks[0].reason, "deadline-miss");
  EXPECT_EQ(report.dropped, 0);
  // Every response formed after the rollback is back on generation 1.
  for (const auto& r : report.responses) {
    if (!r.shed && r.formed > report.rollbacks[0].tick) {
      EXPECT_EQ(r.generation, 1);
    }
  }
  fs::remove_all(dir);
}

TEST(ServeRuntime, BreakerOpensShedsAndRecloses) {
  serve::TraceSpec spec;
  spec.model = "m";
  spec.mean_interarrival = 2.0;
  spec.end = 400;
  spec.deadline = 60;
  spec.input = kInput;
  spec.seed = 13;
  const auto trace = serve::synthesize_trace({spec});

  auto run_at = [&](int workers) {
    auto cfg = runtime_config(workers);
    // The first three served batches emit NaN logits; threshold 2 opens
    // the breaker, and the exhausted fault lets the half-open probe close
    // it again.
    cfg.fault_spec = "flaky-output:count=3";
    cfg.breaker.failure_threshold = 2;
    cfg.breaker.open_ticks = 40;
    cfg.breaker.half_open_probes = 1;
    cfg.breaker.close_after = 1;
    exec::ExecContext ctx(1);
    serve::ServeRuntime rt(cfg, ctx);
    rt.publish_network("m", tiny_net(0.5f, 21), 1, kInput);
    return rt.run(trace);
  };
  const auto report = run_at(1);

  ASSERT_TRUE(report.breaker_transitions.count("m"));
  const auto& transitions = report.breaker_transitions.at("m");
  ASSERT_GE(transitions.size(), 3u);
  EXPECT_EQ(transitions[0].from, serve::BreakerState::kClosed);
  EXPECT_EQ(transitions[0].to, serve::BreakerState::kOpen);
  EXPECT_EQ(transitions.back().to, serve::BreakerState::kClosed);
  EXPECT_GT(report.shed_circuit_open, 0);
  EXPECT_EQ(report.dropped, 0);
  std::int64_t circuit_sheds = 0;
  for (const auto& r : report.responses) {
    circuit_sheds += (r.shed && r.reason == serve::ShedReason::kCircuitOpen)
                         ? 1
                         : 0;
  }
  EXPECT_EQ(circuit_sheds, report.shed_circuit_open);
  bool saw_breaker_event = false;
  for (const auto& ev : report.health_events) {
    saw_breaker_event |= ev.type == robust::EventType::kBreakerStateChange;
  }
  EXPECT_TRUE(saw_breaker_event);

  // Breaker transitions ride the modeled clock: identical under 4 workers.
  const auto wide = run_at(4);
  ASSERT_TRUE(wide.breaker_transitions.count("m"));
  const auto& wt = wide.breaker_transitions.at("m");
  ASSERT_EQ(wt.size(), transitions.size());
  for (std::size_t i = 0; i < wt.size(); ++i) {
    EXPECT_EQ(wt[i].tick, transitions[i].tick);
    EXPECT_EQ(wt[i].from, transitions[i].from);
    EXPECT_EQ(wt[i].to, transitions[i].to);
  }
  EXPECT_EQ(wide.shed_circuit_open, report.shed_circuit_open);
}

TEST(ServeRuntime, ChaosMatrixZeroDropUnderEveryFaultKind) {
  struct Scenario {
    const char* tag;
    const char* producer_fault;  ///< applied when generation 2 is written
    const char* serve_fault;     ///< the runtime's own fault_spec
    std::int64_t expect_misses_opt_in;
  };
  const Scenario scenarios[] = {
      {"poison", "poison-ckpt:epoch=2", "", -1},
      {"torn", "torn-ckpt:epoch=2", "", -1},
      {"slow", "", "slow-model:epoch=2,scale=50,count=0", 0},
      {"flaky", "", "flaky-output:epoch=2,count=2", -1},
  };
  serve::TraceSpec spec;
  spec.model = "m";
  spec.mean_interarrival = 3.0;
  spec.end = 400;
  spec.deadline = 60;
  spec.input = kInput;
  spec.seed = 17;
  const auto trace = serve::synthesize_trace({spec});

  for (const Scenario& s : scenarios) {
    SCOPED_TRACE(s.tag);
    const fs::path dir = scratch_dir(std::string("chaos_") + s.tag);
    auto gen1 = tiny_net(0.5f, 21);
    write_generation(dir, 1, gen1);

    auto cfg = runtime_config(2);
    cfg.poll_interval = 5;
    cfg.fault_spec = s.serve_fault;
    cfg.health.max_deadline_misses = s.expect_misses_opt_in;
    exec::ExecContext ctx(1);
    serve::ServeRuntime rt(cfg, ctx);
    rt.add_model("m", dir.string(), kInput);
    rt.schedule(150, [&] {
      auto gen2 = tiny_net(0.5f, 22);
      const std::string producer = s.producer_fault;
      if (producer.find("poison") != std::string::npos) {
        auto inj = robust::FaultInjector::from_string(producer, 7);
        ASSERT_TRUE(inj.poison_network(gen2, 2));
        write_generation(dir, 2, gen2);
      } else if (!producer.empty()) {
        write_generation(dir, 2, gen2);
        auto inj = robust::FaultInjector::from_string(producer, 7);
        ASSERT_TRUE(inj.corrupt_checkpoint_files(
            {(dir / "ckpt-epoch-2.bin").string()}, 2));
      } else {
        write_generation(dir, 2, gen2);
      }
    });
    const auto report = rt.run(trace);

    // The invariants every fault kind must leave standing.
    EXPECT_EQ(report.dropped, 0);
    EXPECT_EQ(report.admitted, report.completed);
    ASSERT_EQ(report.responses.size(), trace.size());
    if (s.producer_fault[0] != '\0') {
      // Producer-side corruption: generation 2 never serves a byte.
      for (const auto& r : report.responses) {
        if (!r.shed) {
      EXPECT_EQ(r.generation, 1);
    }
      }
      EXPECT_GE(report.quarantined, 1);
    } else {
      // Runtime faults: generation 2 served, breached, and rolled back.
      ASSERT_EQ(report.rollbacks.size(), 1u);
      EXPECT_EQ(report.rollbacks[0].from_generation, 2);
      EXPECT_EQ(report.rollbacks[0].to_generation, 1);
    }
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace pt
