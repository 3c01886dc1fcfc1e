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
//  2. a size-classed workspace arena that owns the im2col/col2im/dcol
//     scratch the conv layers used to allocate per call. Buffers are
//     checked out via RAII leases, grown monotonically, and reused across
//     steps — a steady-state epoch performs zero workspace heap
//     allocations (asserted by tests/exec_test.cpp via the stats counters).
//
// Layers, Network, PruneTrainer, and dist::ElasticCluster all take an
// ExecContext&; the context-free Layer/Network entry points are
// compatibility shims over ExecContext::serial(). See DESIGN.md §9 for
// ownership, the determinism contract, and the workspace lifecycle across
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
/// (e.g. a ctx GEMM nested in a parallelized conv sample loop) runs its
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

/// Statistics of one Workspace arena. heap_allocations only moves when the
/// arena grows, so a flat counter across steps proves steady-state reuse.
struct WorkspaceStats {
  std::uint64_t bytes_reserved = 0;    ///< total bytes owned by the arena
  std::uint64_t high_water_bytes = 0;  ///< peak bytes simultaneously leased
  std::uint64_t heap_allocations = 0;  ///< cumulative buffer allocations
  std::uint64_t leases = 0;            ///< cumulative acquire() calls
};

/// Size-classed scratch arena. acquire(n) returns an RAII lease over a
/// float buffer of capacity >= n, drawn from the free list of the smallest
/// power-of-two size class that fits (allocating only when the class is
/// empty). Released buffers return to their class and are reused by later
/// leases — growth is monotone and capped by the peak concurrent demand.
/// Thread-safe; leases themselves must be released on the acquiring thread.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { release(); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    float* data() { return data_; }
    const float* data() const { return data_; }
    std::size_t size() const { return size_; }  ///< requested element count
    void release();

   private:
    friend class Workspace;
    Workspace* owner_ = nullptr;
    float* data_ = nullptr;
    std::size_t size_ = 0;      ///< requested floats
    std::size_t capacity_ = 0;  ///< size-class floats actually held
  };

  /// Checks out a scratch buffer of at least `n` floats. The contents are
  /// unspecified (callers overwrite before reading).
  Lease acquire(std::size_t n);

  /// The capacity (in floats) a lease of `n` floats actually holds: the
  /// smallest power-of-two size class that fits. Exposed so the cost model
  /// (cost::MemoryModel) can predict the arena's high-water mark exactly.
  static std::size_t round_up_capacity(std::size_t n);

  WorkspaceStats stats() const;
  std::uint64_t bytes_reserved() const { return stats().bytes_reserved; }
  std::uint64_t high_water_bytes() const { return stats().high_water_bytes; }
  std::uint64_t heap_allocations() const { return stats().heap_allocations; }

  /// Frees every owned buffer and resets the statistics. Called when the
  /// model's shapes change (prune/reconfigure) so the arena re-sizes to —
  /// and the high-water mark re-measures — the new, smaller hot loop.
  /// Outstanding leases must have been released (reconfiguration happens at
  /// step boundaries, where none exist).
  void clear();

 private:
  void give_back(float* data, std::size_t capacity);

  mutable std::mutex mutex_;
  // free_lists_[k] holds released buffers of capacity 2^k floats.
  std::vector<std::vector<std::unique_ptr<float[]>>> free_lists_;
  std::uint64_t bytes_reserved_ = 0;
  std::uint64_t bytes_in_use_ = 0;
  std::uint64_t high_water_bytes_ = 0;
  std::uint64_t heap_allocations_ = 0;
  std::uint64_t leases_ = 0;
};

/// The execution-context handle: one pool + one workspace, owned together.
/// Construct one per training run (PruneTrainer does this from
/// TrainConfig::num_threads) and pass it down every forward/backward call.
class ExecContext {
 public:
  /// `num_threads` == 0 uses std::thread::hardware_concurrency().
  explicit ExecContext(int num_threads = 1);

  ThreadPool& pool() { return *pool_; }
  const ThreadPool& pool() const { return *pool_; }
  Workspace& workspace() { return *workspace_; }
  const Workspace& workspace() const { return *workspace_; }
  int num_threads() const { return pool_->size(); }

  /// Drops the workspace arena so its sizing (and high-water statistics)
  /// track the current model shapes; the next step re-leases at the pruned
  /// sizes. The pool is untouched — worker threads survive reconfiguration.
  void rebuild_workspace();

  /// Process-wide single-threaded context backing the context-free
  /// compatibility shims (Layer::forward(x, training) etc.). Test-only
  /// convenience: production call paths thread an explicit context.
  static ExecContext& serial();

 private:
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Workspace> workspace_;
};

}  // namespace pt::exec
