// Execution-context tests (`ctest -L exec`): the ThreadPool's static
// partition and determinism contract (N-thread results bitwise-identical
// to 1-thread, from a single GEMM up to a full pruning training run), the
// Workspace buffer's steady-state reuse (heap-allocation counter flat once
// warm) and its one-caller rule, lanes (one-thread child contexts that may
// reserve inside their parent's chunk), context survival across
// prune/reconfigure, and the MemoryModel's exact prediction of the bytes
// the workspace and its lanes hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "core/trainer.h"
#include "cost/memory.h"
#include "dist/elastic.h"
#include "exec/context.h"
#include "models/builders.h"
#include "tensor/ops.h"

namespace pt::exec {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

/// Every parameter tensor (values and gradients) bitwise-identical.
void expect_params_bitwise(graph::Network& a, graph::Network& b) {
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(pa[i]->value, pb[i]->value))
        << "param value diverged: " << pa[i]->name;
    EXPECT_TRUE(bitwise_equal(pa[i]->grad, pb[i]->grad))
        << "param grad diverged: " << pa[i]->name;
  }
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, StaticPartitionCoversRangeExactly) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4);
  const std::int64_t n = 10;
  std::mutex mu;
  std::vector<std::tuple<std::int64_t, std::int64_t, int>> chunks;
  pool.parallel_for(n, [&](std::int64_t b, std::int64_t e, int c) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(b, e, c);
  });
  ASSERT_EQ(chunks.size(), 4u);  // min(size, n) chunks
  std::sort(chunks.begin(), chunks.end(),
            [](const auto& x, const auto& y) {
              return std::get<2>(x) < std::get<2>(y);
            });
  // Chunk c is exactly [c*n/T, (c+1)*n/T) — a pure function of (n, T).
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(std::get<0>(chunks[static_cast<std::size_t>(c)]), c * n / 4);
    EXPECT_EQ(std::get<1>(chunks[static_cast<std::size_t>(c)]), (c + 1) * n / 4);
    EXPECT_EQ(std::get<2>(chunks[static_cast<std::size_t>(c)]), c);
  }
}

TEST(ThreadPool, SmallRangeRunsAsSingleInlineChunk) {
  ThreadPool pool(4);
  int calls = 0;
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.parallel_for(1, [&](std::int64_t b, std::int64_t e, int c) {
    ++calls;
    ran_on = std::this_thread::get_id();
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 1);
    EXPECT_EQ(c, 0);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, caller);  // no worker handoff for a single chunk
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(3);
  const std::int64_t inner_n = 8;
  // One row per outer chunk; the nested loop must fill the issuing chunk's
  // row completely (inline, on the issuing thread) without deadlocking.
  std::vector<std::vector<std::int64_t>> rows(
      3, std::vector<std::int64_t>(static_cast<std::size_t>(inner_n), -1));
  pool.parallel_for(3, [&](std::int64_t ob, std::int64_t oe, int oc) {
    (void)ob;
    (void)oe;
    const std::thread::id outer_thread = std::this_thread::get_id();
    pool.parallel_for(inner_n, [&](std::int64_t b, std::int64_t e, int) {
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      for (std::int64_t i = b; i < e; ++i) {
        rows[static_cast<std::size_t>(oc)][static_cast<std::size_t>(i)] = i;
      }
    });
  });
  for (const auto& row : rows) {
    for (std::int64_t i = 0; i < inner_n; ++i) {
      EXPECT_EQ(row[static_cast<std::size_t>(i)], i);
    }
  }
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::int64_t, std::int64_t, int) {
                          throw std::runtime_error("chunk failure");
                        }),
      std::runtime_error);
  // The pool must remain usable after a throwing job.
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(8, [&](std::int64_t b, std::int64_t e, int) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 28);
  EXPECT_GE(pool.tasks_run(), 2u);
}

// --- Workspace ------------------------------------------------------------

TEST(Workspace, SteadyStateLeasesPerformNoHeapAllocations) {
  Workspace ws;
  for (int step = 0; step < 10; ++step) {
    float* buf = ws.reserve(1000);
    ASSERT_NE(buf, nullptr);
    buf[999] = 1.0f;  // the capacity is real, writable memory
  }
  const WorkspaceStats s = ws.stats();
  EXPECT_EQ(s.heap_allocations, 1u);  // first reserve only; 9 reuses
  EXPECT_EQ(s.reserves, 10u);
  EXPECT_EQ(s.bytes_reserved, 1000u * sizeof(float));
  EXPECT_EQ(s.high_water_bytes, 1000u * sizeof(float));
}

TEST(Workspace, GrowsToExactlyTheLargestRequest) {
  Workspace ws;
  float* first = ws.reserve(100);
  EXPECT_EQ(ws.reserve(60), first);  // smaller requests reuse the buffer
  EXPECT_EQ(ws.bytes_reserved(), 100u * sizeof(float));
  ws.reserve(130)[129] = 1.0f;
  const WorkspaceStats s = ws.stats();
  EXPECT_EQ(s.heap_allocations, 2u);
  EXPECT_EQ(s.reserves, 3u);
  EXPECT_EQ(s.bytes_reserved, 130u * sizeof(float));
  EXPECT_EQ(s.high_water_bytes, s.bytes_reserved);
}

TEST(Workspace, ClearFreesTheBufferAndTheNextReserveReallocates) {
  Workspace ws;
  ws.reserve(130);
  ws.reserve(40);
  ws.clear();
  WorkspaceStats s = ws.stats();
  EXPECT_EQ(s.bytes_reserved, 0u);
  EXPECT_EQ(s.high_water_bytes, 0u);
  EXPECT_EQ(s.heap_allocations, 0u);
  EXPECT_EQ(s.reserves, 0u);

  // After clear() the buffer re-sizes to the new (smaller) request rather
  // than the old peak: the pruned model's hot loop is re-measured.
  ws.reserve(40)[39] = 1.0f;
  s = ws.stats();
  EXPECT_EQ(s.heap_allocations, 1u);
  EXPECT_EQ(s.reserves, 1u);
  EXPECT_EQ(s.bytes_reserved, 40u * sizeof(float));
  EXPECT_EQ(s.high_water_bytes, s.bytes_reserved);
}

TEST(Workspace, ReserveFromInsideAParallelForChunkThrows) {
  // The buffer has one caller: the thread that issues the parallel_for.
  // A chunk that reserved would reallocate under its sibling chunks'
  // slices, so it is refused on workers and on the inline path alike.
  for (int threads : {1, 3}) {
    ThreadPool pool(threads);
    Workspace ws;
    auto reserve_in_chunk = [&](std::int64_t, std::int64_t, int) {
      ws.reserve(8);
    };
    EXPECT_THROW(pool.parallel_for(3, reserve_in_chunk), std::logic_error)
        << threads << " threads";
    EXPECT_EQ(ws.bytes_reserved(), 0u);
    EXPECT_NE(ws.reserve(8), nullptr);  // the issuing thread may reserve
  }
}

// --- Lanes ----------------------------------------------------------------

TEST(Lanes, LaneMayReserveInsideItsParentsChunk) {
  ExecContext ctx(3);
  ctx.pool().parallel_for(3, [&](std::int64_t, std::int64_t, int chunk) {
    float* buf = ctx.lane(chunk).workspace().reserve(8 * (chunk + 1));
    buf[8 * chunk + 7] = 1.0f;
  });
  EXPECT_EQ(ctx.workspace().bytes_reserved(), 0u);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(ctx.lane(c).workspace().bytes_reserved(),
              8u * static_cast<unsigned>(c + 1) * sizeof(float));
    EXPECT_EQ(ctx.lane(c).num_threads(), 1);
  }
  EXPECT_EQ(&ctx.lane(1), &ctx.lane(1));  // made once, then reused
  const WorkspaceStats s = ctx.workspace_stats();
  EXPECT_EQ(s.bytes_reserved, (8u + 16u + 24u) * sizeof(float));
  EXPECT_EQ(s.high_water_bytes, s.bytes_reserved);
  EXPECT_EQ(s.heap_allocations, 3u);
  EXPECT_EQ(s.reserves, 3u);
}

TEST(Lanes, ParentWorkspaceStillThrowsInsideTheRegion) {
  for (int threads : {1, 3}) {
    ExecContext ctx(threads);
    EXPECT_THROW(ctx.pool().parallel_for(
                     3, [&](std::int64_t, std::int64_t, int) {
                       ctx.workspace().reserve(8);
                     }),
                 std::logic_error)
        << threads << " threads";
    EXPECT_EQ(ctx.workspace_stats().bytes_reserved, 0u);
  }
}

TEST(Lanes, LaneThrowsInsideItsOwnNestedRegion) {
  ExecContext ctx(2);
  std::atomic<int> refused{0};
  ctx.pool().parallel_for(2, [&](std::int64_t, std::int64_t, int chunk) {
    ExecContext& lane = ctx.lane(chunk);
    try {
      lane.pool().parallel_for(2, [&](std::int64_t, std::int64_t, int) {
        lane.workspace().reserve(8);
      });
    } catch (const std::logic_error&) {
      ++refused;
    }
    lane.workspace().reserve(4);  // back in the parent's chunk: allowed
  });
  EXPECT_EQ(refused.load(), 2);
  EXPECT_EQ(ctx.workspace_stats().bytes_reserved, 2u * 4u * sizeof(float));
}

TEST(Lanes, RebuildWorkspaceFreesTheLanes) {
  ExecContext ctx(2);
  ctx.workspace().reserve(16);
  ctx.pool().parallel_for(2, [&](std::int64_t, std::int64_t, int chunk) {
    ctx.lane(chunk).workspace().reserve(32);
  });
  EXPECT_EQ(ctx.workspace_stats().bytes_reserved, (16u + 64u) * sizeof(float));

  ctx.rebuild_workspace();
  const WorkspaceStats fresh = ctx.workspace_stats();
  EXPECT_EQ(fresh.bytes_reserved, 0u);
  EXPECT_EQ(fresh.high_water_bytes, 0u);
  EXPECT_EQ(fresh.heap_allocations, 0u);
  EXPECT_EQ(fresh.reserves, 0u);
  EXPECT_EQ(ctx.lane(0).workspace().bytes_reserved(), 0u);  // a new lane
}

// --- Determinism: kernels -> layers -> network -> full run ----------------

TEST(Determinism, GemmBitwiseIdenticalAcrossThreadCounts) {
  const std::int64_t m = 23, n = 17, k = 11;
  Rng rng(42);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c1({m, n});
  Tensor c4({m, n});
  // Non-zero beta exercises the accumulate path too.
  Tensor acc = Tensor::randn({m, n}, rng);
  std::copy(acc.data(), acc.data() + acc.numel(), c1.data());
  std::copy(acc.data(), acc.data() + acc.numel(), c4.data());

  ExecContext ctx1(1);
  ExecContext ctx4(4);
  gemm_nn(ctx1, m, n, k, 1.0f, a.data(), b.data(), 0.5f, c1.data());
  gemm_nn(ctx4, m, n, k, 1.0f, a.data(), b.data(), 0.5f, c4.data());
  EXPECT_TRUE(bitwise_equal(c1, c4));

  Tensor bt = Tensor::randn({n, k}, rng);
  Tensor d1({m, n});
  Tensor d4({m, n});
  gemm_nt(ctx1, m, n, k, 1.0f, a.data(), bt.data(), 0.0f, d1.data());
  gemm_nt(ctx4, m, n, k, 1.0f, a.data(), bt.data(), 0.0f, d4.data());
  EXPECT_TRUE(bitwise_equal(d1, d4));

  Tensor at = Tensor::randn({k, m}, rng);
  Tensor e1({m, n});
  Tensor e4({m, n});
  gemm_tn(ctx1, m, n, k, 1.0f, at.data(), b.data(), 0.0f, e1.data());
  gemm_tn(ctx4, m, n, k, 1.0f, at.data(), b.data(), 0.0f, e4.data());
  EXPECT_TRUE(bitwise_equal(e1, e4));
}

models::ModelConfig tiny_model(std::int64_t classes = 4) {
  models::ModelConfig cfg;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.classes = classes;
  cfg.width_mult = 0.25f;
  cfg.seed = 21;
  return cfg;
}

TEST(Determinism, NetworkForwardBackwardBitwiseAcrossThreadCounts) {
  // Two identically-seeded networks, one driven serially and one on a
  // 4-thread context: outputs, input gradients, and every parameter
  // gradient must match bit for bit.
  auto net1 = models::build_resnet_basic(8, tiny_model());
  auto net4 = models::build_resnet_basic(8, tiny_model());
  ExecContext ctx1(1);
  ExecContext ctx4(4);
  Rng rng(7);
  Tensor x = Tensor::randn({6, 3, 8, 8}, rng);

  net1.zero_grad();
  net4.zero_grad();
  Tensor y1 = net1.forward(ctx1, x, true);
  Tensor y4 = net4.forward(ctx4, x, true);
  EXPECT_TRUE(bitwise_equal(y1, y4));

  Tensor dy(y1.shape());
  for (std::int64_t i = 0; i < dy.numel(); ++i) {
    dy.data()[i] = 0.01f * static_cast<float>(i % 13) - 0.05f;
  }
  Tensor dx1 = net1.backward(ctx1, dy);
  Tensor dx4 = net4.backward(ctx4, dy);
  EXPECT_TRUE(bitwise_equal(dx1, dx4));
  expect_params_bitwise(net1, net4);
}

data::SyntheticSpec tiny_data(std::int64_t classes = 4) {
  data::SyntheticSpec spec;
  spec.name = "tiny";
  spec.classes = classes;
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

core::TrainConfig pruning_run_cfg(std::int64_t threads) {
  core::TrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 32;
  cfg.base_lr = 0.05f;
  cfg.weight_decay = 1e-4f;
  cfg.policy = core::PrunePolicy::kPruneTrain;
  cfg.reconfig_interval = 2;
  cfg.strategy_params["ratio"] = "0.3";
  // Proxy time compression so pruning fires fast.
  cfg.strategy_params["boost"] = "200";
  cfg.num_threads = threads;
  return cfg;
}

TEST(Determinism, FullPruningRunBitwiseIdenticalAcrossThreadCounts) {
  // The acceptance test of the whole API: an entire PruneTrain schedule —
  // SGD, lasso regularization, evaluation, and channel pruning with
  // network surgery — produces bit-identical numbers on 1 and 3 threads.
  auto data = data::SyntheticImageDataset(tiny_data());
  auto net1 = models::build_resnet_basic(8, tiny_model());
  auto net3 = models::build_resnet_basic(8, tiny_model());
  core::PruneTrainer t1(net1, data, pruning_run_cfg(1));
  core::PruneTrainer t3(net3, data, pruning_run_cfg(3));
  EXPECT_EQ(t1.exec_context().num_threads(), 1);
  EXPECT_EQ(t3.exec_context().num_threads(), 3);
  const auto r1 = t1.run();
  const auto r3 = t3.run();

  ASSERT_EQ(r1.epochs.size(), r3.epochs.size());
  bool reconfigured = false;
  for (std::size_t e = 0; e < r1.epochs.size(); ++e) {
    EXPECT_EQ(r1.epochs[e].train_loss, r3.epochs[e].train_loss) << "epoch " << e;
    EXPECT_EQ(r1.epochs[e].train_acc, r3.epochs[e].train_acc) << "epoch " << e;
    EXPECT_EQ(r1.epochs[e].test_acc, r3.epochs[e].test_acc) << "epoch " << e;
    EXPECT_EQ(r1.epochs[e].lasso_loss, r3.epochs[e].lasso_loss) << "epoch " << e;
    EXPECT_EQ(r1.epochs[e].channels_alive, r3.epochs[e].channels_alive);
    EXPECT_EQ(r1.epochs[e].reconfigured, r3.epochs[e].reconfigured);
    reconfigured = reconfigured || r1.epochs[e].reconfigured;
  }
  // The schedule must actually have pruned+reconfigured, so the bitwise
  // comparison above covers the workspace-rebuild path, not just dense SGD.
  EXPECT_TRUE(reconfigured);
  EXPECT_EQ(r1.final_test_acc, r3.final_test_acc);
  EXPECT_EQ(r1.final_channels, r3.final_channels);
  expect_params_bitwise(net1, net3);
}

// --- Workspace behaviour on the real hot path -----------------------------

TEST(ExecContext, SteadyStateEpochPerformsZeroWorkspaceAllocations) {
  auto net = models::build_resnet_basic(8, tiny_model());
  ExecContext ctx(2);
  Rng rng(11);
  Tensor x = Tensor::randn({4, 3, 8, 8}, rng);

  auto one_pass = [&] {
    net.zero_grad();
    Tensor y = net.forward(ctx, x, true);
    Tensor dy(y.shape());
    for (std::int64_t i = 0; i < dy.numel(); ++i) dy.data()[i] = 0.1f;
    net.backward(ctx, dy);
  };

  one_pass();  // warm-up grows the buffer to its peak
  const WorkspaceStats warm = ctx.workspace().stats();
  EXPECT_GT(warm.heap_allocations, 0u);
  EXPECT_GT(warm.reserves, 0u);

  for (int step = 0; step < 4; ++step) one_pass();
  const WorkspaceStats after = ctx.workspace().stats();
  EXPECT_EQ(after.heap_allocations, warm.heap_allocations)
      << "steady-state passes must not touch the heap";
  EXPECT_EQ(after.bytes_reserved, warm.bytes_reserved);
  EXPECT_EQ(after.reserves, warm.reserves * 5);  // but reserves keep flowing
}

TEST(ExecContext, RebuildWorkspaceResetsArenaAndContextStaysUsable) {
  auto net = models::build_resnet_basic(8, tiny_model());
  ExecContext ctx(3);
  Rng rng(13);
  Tensor x = Tensor::randn({4, 3, 8, 8}, rng);
  net.forward(ctx, x, true);
  EXPECT_GT(ctx.workspace().bytes_reserved(), 0u);

  ctx.rebuild_workspace();  // what the trainer does after reconfigure()
  const WorkspaceStats fresh = ctx.workspace().stats();
  EXPECT_EQ(fresh.bytes_reserved, 0u);
  EXPECT_EQ(fresh.heap_allocations, 0u);
  EXPECT_EQ(fresh.high_water_bytes, 0u);

  // Same pool (worker threads survive), workspace re-reserves on demand, and
  // the results stay bitwise equal to a serial context.
  EXPECT_EQ(ctx.num_threads(), 3);
  auto net_ref = models::build_resnet_basic(8, tiny_model());
  Tensor y = net.forward(ctx, x, true);
  ExecContext serial(1);
  Tensor y_ref = net_ref.forward(serial, x, true);
  EXPECT_TRUE(bitwise_equal(y, y_ref));
  EXPECT_GT(ctx.workspace().bytes_reserved(), 0u);
}

// --- MemoryModel <-> Workspace agreement ----------------------------------

// One training step of `net` at batch `n` on `threads` threads: the bytes
// its workspace holds afterwards, its high-water mark, and the model's
// prediction of both.
struct WorkspaceBytes {
  double reserved, high_water, modeled;
};

WorkspaceBytes workspace_measured_and_modeled(graph::Network& net,
                                              std::int64_t image,
                                              std::int64_t n, int threads) {
  ExecContext ctx(threads);
  Rng rng(17);
  Tensor x = Tensor::randn({n, 3, image, image}, rng);
  net.zero_grad();
  Tensor y = net.forward(ctx, x, true);
  Tensor dy(y.shape());
  for (std::int64_t i = 0; i < dy.numel(); ++i) dy.data()[i] = 0.05f;
  net.backward(ctx, dy);
  const cost::MemoryModel model(net, Shape{3, image, image}, &ctx);
  const WorkspaceStats s = ctx.workspace().stats();
  return {static_cast<double>(s.bytes_reserved),
          static_cast<double>(s.high_water_bytes), model.workspace_bytes(n)};
}

TEST(MemoryModel, WorkspacePredictionMatchesMeasuredHighWater) {
  // The model's workspace term must equal the bytes the workspace holds
  // and its high-water mark *exactly*: lowering-block size and one slice
  // per parallel chunk included.
  models::ModelConfig mc;
  mc.image_h = 32;
  mc.image_w = 32;
  mc.classes = 10;
  mc.width_mult = 0.25f;
  mc.seed = 3;
  // CIFAR-shaped ResNet: one sample a block at 32x32 and 16x16, two at
  // 8x8. On two threads and on a serial context.
  for (int threads : {2, 1}) {
    auto net = models::build_resnet_basic(8, mc);
    const WorkspaceBytes b =
        workspace_measured_and_modeled(net, 32, 4, threads);
    ASSERT_GT(b.high_water, 0.0);
    EXPECT_DOUBLE_EQ(b.modeled, b.high_water) << threads << " threads";
    EXPECT_DOUBLE_EQ(b.modeled, b.reserved) << threads << " threads";
  }
  // A 4-replica elastic step: on two threads, two lanes run two shards
  // each (batch 13 shards as 4, 3, 3, 3) and the lanes' buffers add up;
  // on one thread the shards run on the context itself.
  for (int threads : {2, 1}) {
    auto net = models::build_resnet_basic(8, mc);
    ExecContext ctx(threads);
    cost::CommSpec spec;
    spec.gpus = 4;
    dist::ElasticCluster cluster(net, 4, spec);
    optim::SGD opt(0.05f, 0.9f);
    Rng rng(19);
    data::Batch batch;
    batch.images = Tensor::randn({13, 3, 32, 32}, rng);
    for (int i = 0; i < 13; ++i) batch.labels.push_back(i % 10);
    cluster.step(ctx, batch, opt);
    const cost::MemoryModel model(net, Shape{3, 32, 32}, &ctx, 4);
    const WorkspaceStats s = ctx.workspace_stats();
    ASSERT_GT(s.high_water_bytes, 0u);
    EXPECT_EQ(ctx.workspace().bytes_reserved() == 0, threads == 2)
        << "the lanes, not the parent, hold the scratch on 2 threads";
    EXPECT_DOUBLE_EQ(model.workspace_bytes(13),
                     static_cast<double>(s.high_water_bytes))
        << threads << " threads";
    EXPECT_DOUBLE_EQ(model.workspace_bytes(13),
                     static_cast<double>(s.bytes_reserved))
        << threads << " threads";
  }
  // An 8x8 input reaches 2x2 outputs, where one block spans many samples:
  // at n = 13 the 8x8 stage's two-sample blocks leave a one-sample tail and
  // the 2x2 stage lowers all 13 samples at once; at n = 40 the 2x2 stage
  // splits into a 32-sample block and an 8-sample one.
  mc.image_h = 8;
  mc.image_w = 8;
  mc.width_mult = 0.5f;
  for (const std::int64_t n : {13, 40}) {
    for (int threads : {1, 3}) {
      auto net = models::build_resnet_basic(8, mc);
      const WorkspaceBytes b =
          workspace_measured_and_modeled(net, 8, n, threads);
      ASSERT_GT(b.high_water, 0.0);
      EXPECT_DOUBLE_EQ(b.modeled, b.high_water)
          << "n = " << n << ", " << threads << " threads";
      EXPECT_DOUBLE_EQ(b.modeled, b.reserved)
          << "n = " << n << ", " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace pt::exec
