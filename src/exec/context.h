// Execution context: the per-run handle every hot-path kernel executes
// through. It carries
//
//  1. a deterministic thread pool — parallel loops are split into one
//     *static contiguous* index chunk per thread (chunk t of [0, n) is
//     [t*n/T, (t+1)*n/T)), with no work stealing and no cross-chunk
//     reductions, so every output element is computed by exactly the same
//     serial instruction sequence regardless of the thread count. N-thread
//     results are bitwise-identical to 1-thread results by construction.
//
//  2. a workspace: one grow-only float buffer that holds the conv layers'
//     lowering scratch (im2col/col2im/dcol). It grows to exactly the
//     largest request and is reused across steps — a steady-state epoch
//     performs zero workspace heap allocations (asserted by
//     tests/exec_test.cpp via the stats counters).
//
//  3. lanes: one-thread child contexts, one per pool chunk, for a region
//     over independent jobs (the replica shards of an elastic step, the
//     tensors of a gradient exchange). Chunk c runs its jobs on lane(c), so
//     each job's kernels run inline and its scratch lives in the lane's
//     own workspace.
//
// Layers, Network, PruneTrainer, and dist::ElasticCluster all take an
// ExecContext&; there is no process-wide default context, so every caller
// (tests and benches included) owns one. See DESIGN.md §9 for ownership,
// the determinism contract, and the workspace lifecycle across
// reconfiguration.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pt::exec {

/// Deterministic fork-join pool: `threads - 1` persistent workers plus the
/// calling thread. parallel_for() partitions [0, n) into at most `threads`
/// static contiguous chunks; the caller runs chunk 0 while workers run the
/// rest, then the call joins. There is no work stealing: the chunk
/// boundaries depend only on (n, threads), never on timing.
///
/// The pool is reentrancy-safe: a parallel_for issued from inside a worker
/// (e.g. the GEMM a conv block issues from its parallel chunk) runs its
/// chunks inline, serially, on the issuing thread.
class ThreadPool {
 public:
  /// `threads` <= 1 means no workers (everything runs inline on the
  /// caller). The pool is not copyable or movable — layers hold references.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads participating in a parallel_for (workers + caller).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(begin, end, chunk) over a static partition of [0, n) into
  /// min(size(), n) contiguous chunks (chunk c = [c*n/T, (c+1)*n/T)).
  /// Blocks until every chunk has finished. Exceptions thrown by fn are
  /// rethrown on the calling thread (first chunk index wins).
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t begin,
                                             std::int64_t end, int chunk)>& fn);

  /// Cumulative chunks executed (including inline/nested ones) — the
  /// "tasks run" telemetry statistic.
  std::uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(int worker_index);
  void run_chunk(const std::function<void(std::int64_t, std::int64_t, int)>& fn,
                 std::int64_t n, int num_chunks, int chunk);

  std::vector<std::thread> workers_;

  // Dispatch state, guarded by mutex_. Each parallel_for bumps the
  // generation; workers pick up the current job when they observe it.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::int64_t job_n_ = 0;
  int job_chunks_ = 0;
  const std::function<void(std::int64_t, std::int64_t, int)>* job_fn_ = nullptr;
  int pending_ = 0;      ///< worker chunks not yet finished this generation
  bool shutdown_ = false;
  std::exception_ptr first_error_;
  int first_error_chunk_ = -1;

  std::atomic<std::uint64_t> tasks_run_{0};
};

/// Statistics of one Workspace. heap_allocations only moves when the
/// buffer grows, so a flat counter across steps proves steady-state reuse.
/// The buffer grows to exactly the largest request, so bytes_reserved and
/// high_water_bytes are the same number.
struct WorkspaceStats {
  std::uint64_t bytes_reserved = 0;    ///< bytes the buffer holds
  std::uint64_t high_water_bytes = 0;  ///< largest reserve() since clear()
  std::uint64_t heap_allocations = 0;  ///< cumulative buffer allocations
  std::uint64_t reserves = 0;          ///< cumulative reserve() calls
};

/// One grow-only float scratch buffer. reserve(n) returns a buffer of at
/// least `n` floats, reallocating (to exactly `n`) only when `n` exceeds
/// the current capacity; a parallel pass reserves its chunks' slices at
/// once and hands chunk c the slice at c * slice. The buffer has one
/// caller at a time: the thread that issues the parallel_for.
class Workspace {
 public:
  /// `base_depth` is the parallel_for nesting depth its caller runs at: 0
  /// for a context's own (or a standalone) workspace, 1 for a lane's,
  /// whose caller is the thread running one chunk of the parent's region.
  explicit Workspace(int base_depth = 0) : base_depth_(base_depth) {}
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The scratch buffer, at least `n` floats. The contents are unspecified
  /// (callers overwrite before reading) and the pointer is valid until the
  /// next reserve() or clear(). Throws std::logic_error when called from
  /// inside a parallel_for chunk nested deeper than the base depth — a
  /// region its own caller opened.
  float* reserve(std::size_t n);

  WorkspaceStats stats() const;
  std::uint64_t bytes_reserved() const { return stats().bytes_reserved; }
  std::uint64_t high_water_bytes() const { return stats().high_water_bytes; }
  std::uint64_t heap_allocations() const { return stats().heap_allocations; }

  /// Frees the buffer and resets the statistics. Called when the model's
  /// shapes change (prune/reconfigure) so the buffer re-sizes to — and the
  /// high-water mark re-measures — the new, smaller hot loop.
  void clear();

 private:
  int base_depth_;
  std::unique_ptr<float[]> data_;
  std::size_t capacity_ = 0;  ///< floats held by data_
  std::uint64_t heap_allocations_ = 0;
  std::uint64_t reserves_ = 0;
};

/// The execution-context handle: one pool + one workspace, owned together,
/// plus the lanes made from them. Construct one per training run
/// (PruneTrainer does this from TrainConfig::num_threads) and pass it down
/// every forward/backward call.
class ExecContext {
 public:
  /// `num_threads` == 0 uses std::thread::hardware_concurrency().
  explicit ExecContext(int num_threads = 1);

  ThreadPool& pool() { return *pool_; }
  const ThreadPool& pool() const { return *pool_; }
  Workspace& workspace() { return *workspace_; }
  const Workspace& workspace() const { return *workspace_; }
  int num_threads() const { return pool_->size(); }

  /// Lane `c` (0 <= c < num_threads()): a one-thread context with no
  /// workers and its own workspace, made on first use and owned by this
  /// context. Inside a region of this context's pool, the thread running
  /// chunk c runs its jobs on lane(c): their kernels run inline, and their
  /// workspace reserves — legal there, unlike this context's — land in the
  /// lane's buffer. Only that thread may call lane(c) during the region.
  ExecContext& lane(int c);

  /// This context's workspace statistics plus every lane's, summed.
  WorkspaceStats workspace_stats() const;

  /// Drops the workspace buffer and the lanes so their sizing (and
  /// high-water statistics) track the current model shapes; the next step
  /// re-reserves at the pruned sizes. The pool is untouched — worker
  /// threads survive reconfiguration.
  void rebuild_workspace();

 private:
  ExecContext(int num_threads, int workspace_base_depth);

  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Workspace> workspace_;
  std::vector<std::unique_ptr<ExecContext>> lanes_;  ///< one slot per thread
};

}  // namespace pt::exec
