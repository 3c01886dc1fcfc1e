#include "exec/context.h"

#include <algorithm>
#include <stdexcept>

namespace pt::exec {

namespace {

// Depth of parallel_for nesting on this thread. Non-zero inside a worker
// chunk (or a nested caller chunk): further parallel_for calls run inline
// so a nested kernel can never deadlock waiting for the busy workers.
thread_local int t_parallel_depth = 0;

}  // namespace

// ---------------------------------------------------------------------------
// ThreadPool

ThreadPool::ThreadPool(int threads) {
  const int workers = std::max(0, threads - 1);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_chunk(
    const std::function<void(std::int64_t, std::int64_t, int)>& fn,
    std::int64_t n, int num_chunks, int chunk) {
  // Static partition: chunk c covers [c*n/T, (c+1)*n/T). Depends only on
  // (n, num_chunks) — the determinism contract's whole foundation.
  const std::int64_t begin = n * chunk / num_chunks;
  const std::int64_t end = n * (chunk + 1) / num_chunks;
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  if (begin < end) fn(begin, end, chunk);
}

void ThreadPool::worker_loop(int worker_index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::int64_t n;
    int chunks;
    const std::function<void(std::int64_t, std::int64_t, int)>* fn;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      n = job_n_;
      chunks = job_chunks_;
      fn = job_fn_;
    }
    // Worker w owns chunk w+1 (the caller runs chunk 0); workers beyond the
    // chunk count have nothing to do this round but must still check in.
    const int chunk = worker_index + 1;
    std::exception_ptr err;
    if (chunk < chunks) {
      ++t_parallel_depth;
      try {
        run_chunk(*fn, n, chunks, chunk);
      } catch (...) {
        err = std::current_exception();
      }
      --t_parallel_depth;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (err && (first_error_chunk_ < 0 || chunk < first_error_chunk_)) {
        first_error_ = err;
        first_error_chunk_ = chunk;
      }
      --pending_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(
    std::int64_t n,
    const std::function<void(std::int64_t, std::int64_t, int)>& fn) {
  if (n <= 0) return;
  const int chunks =
      static_cast<int>(std::min<std::int64_t>(size(), n));
  if (chunks == 1 || t_parallel_depth > 0) {
    // Single-threaded or nested: run every chunk inline, in chunk order.
    // The partition is still the (n, chunks) static one, so the per-chunk
    // work — and therefore every result bit — matches the parallel run.
    ++t_parallel_depth;
    try {
      for (int c = 0; c < chunks; ++c) run_chunk(fn, n, chunks, c);
    } catch (...) {
      --t_parallel_depth;
      throw;
    }
    --t_parallel_depth;
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_n_ = n;
    job_chunks_ = chunks;
    job_fn_ = &fn;
    pending_ = static_cast<int>(workers_.size());
    first_error_ = nullptr;
    first_error_chunk_ = -1;
    ++generation_;
  }
  start_cv_.notify_all();

  // The caller contributes chunk 0 while the workers run theirs.
  std::exception_ptr caller_err;
  ++t_parallel_depth;
  try {
    run_chunk(fn, n, chunks, 0);
  } catch (...) {
    caller_err = std::current_exception();
  }
  --t_parallel_depth;

  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    job_fn_ = nullptr;
    if (caller_err && first_error_chunk_ != 0) {
      first_error_ = caller_err;  // chunk 0 precedes any worker chunk
    }
    if (first_error_) {
      std::exception_ptr err = first_error_;
      first_error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(err);
    }
  }
}

// ---------------------------------------------------------------------------
// Workspace

float* Workspace::reserve(std::size_t n) {
  if (t_parallel_depth > base_depth_) {
    throw std::logic_error(
        "Workspace::reserve from inside a parallel_for chunk (reserve once, "
        "before the region, and slice per chunk)");
  }
  ++reserves_;
  if (n > capacity_) {
    data_ = std::make_unique_for_overwrite<float[]>(n);
    capacity_ = n;
    ++heap_allocations_;
  }
  return data_.get();
}

WorkspaceStats Workspace::stats() const {
  WorkspaceStats s;
  s.bytes_reserved = capacity_ * sizeof(float);
  s.high_water_bytes = s.bytes_reserved;
  s.heap_allocations = heap_allocations_;
  s.reserves = reserves_;
  return s;
}

void Workspace::clear() {
  data_.reset();
  capacity_ = 0;
  heap_allocations_ = 0;
  reserves_ = 0;
}

// ---------------------------------------------------------------------------
// ExecContext

ExecContext::ExecContext(int num_threads) : ExecContext(num_threads, 0) {}

ExecContext::ExecContext(int num_threads, int workspace_base_depth) {
  if (num_threads < 0) {
    throw std::invalid_argument("ExecContext: num_threads must be >= 0");
  }
  int threads = num_threads;
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  workspace_ = std::make_unique<Workspace>(workspace_base_depth);
  lanes_.resize(static_cast<std::size_t>(threads));
}

ExecContext& ExecContext::lane(int c) {
  // Slot c is touched only by the thread running chunk c, so lanes made
  // concurrently by sibling chunks never share a slot.
  std::unique_ptr<ExecContext>& slot = lanes_.at(static_cast<std::size_t>(c));
  if (!slot) slot.reset(new ExecContext(1, 1));
  return *slot;
}

WorkspaceStats ExecContext::workspace_stats() const {
  WorkspaceStats total = workspace_->stats();
  for (const std::unique_ptr<ExecContext>& lane : lanes_) {
    if (!lane) continue;
    const WorkspaceStats s = lane->workspace_stats();
    total.bytes_reserved += s.bytes_reserved;
    total.high_water_bytes += s.high_water_bytes;
    total.heap_allocations += s.heap_allocations;
    total.reserves += s.reserves;
  }
  return total;
}

void ExecContext::rebuild_workspace() {
  workspace_->clear();
  for (std::unique_ptr<ExecContext>& lane : lanes_) lane.reset();
}

}  // namespace pt::exec
