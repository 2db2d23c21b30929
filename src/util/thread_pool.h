// thread_pool.h — fixed-size worker pool used to run independent simulated
// nodes' local reductions concurrently. The virtual-time accounting is
// independent of real parallelism: the pool only shortens wall-clock time.
//
// Nesting contract
// ----------------
// `parallel_for` may be called from *any* thread, including a pool worker
// that is itself executing a `parallel_for` index. The calling thread never
// blocks on queued helper tasks: the range is split into contiguous blocks
// claimed from a shared atomic cursor, the caller drains blocks alongside
// the workers, and only waits (on a condition variable) for blocks that
// other threads have already claimed but not yet finished. Helper tasks
// that reach the front of the queue after the range is exhausted observe
// the spent cursor and return without touching the callable, so nested and
// concurrent invocations can never deadlock and never dangle. This contract
// is exercised by nested/concurrent stress tests in tests/test_thread_pool.cpp
// (run under TSan in CI).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/wallclock.h"

namespace fgp::util {

/// Monotonic pool activity counters. All values are host-side bookkeeping:
/// blocks_by_helpers depends on scheduling races and MUST NOT feed any
/// deterministic output (see DESIGN.md §12 — it belongs to the Host metric
/// domain).
struct PoolStats {
  unsigned long long parallel_for_calls = 0;
  unsigned long long blocks_total = 0;
  unsigned long long blocks_by_helpers = 0;  ///< claimed off the caller thread
};

class ThreadPool {
 public:
  /// Creates `threads` workers (>= 1). Defaults to hardware concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for i in [0, n) across the pool and waits for *all* indices
  /// to finish, even when some throw; the lowest-index task's exception is
  /// then rethrown ("first one wins"). n == 0 is a no-op. Safe to call from
  /// pool workers (nested) and from several threads at once — see the
  /// nesting contract above. Indices are dispatched in contiguous blocks so
  /// large ranges do not pay per-index enqueue overhead.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t size() const { return workers_.size(); }

  /// Snapshot of the activity counters (atomically consistent per field,
  /// not across fields — fine for monitoring).
  PoolStats stats() const;

  /// Observer invoked on the *calling* thread after every parallel_for,
  /// with the range size and the wall-clock window [begin_s, end_s) in
  /// seconds since the pool's construction. Wall-clock only: intended for
  /// host-domain tracing (obs::attach_pool_tracing). Pass nullptr to
  /// detach. Not thread-safe against concurrent parallel_for callers —
  /// install before handing the pool out.
  using TaskObserver =
      std::function<void(std::size_t n, double begin_s, double end_s)>;
  void set_task_observer(TaskObserver observer);

 private:
  // Shared state of one parallel_for invocation. Helpers hold it via
  // shared_ptr, so a late-dequeued helper outliving the call is harmless:
  // it observes next_block >= num_blocks and never dereferences `fn`.
  struct ForState {
    const std::function<void(std::size_t)>* fn = nullptr;  // caller-owned
    std::size_t n = 0;
    std::size_t block = 1;       // indices per block
    std::size_t num_blocks = 0;
    std::atomic<std::size_t> next_block{0};
    std::atomic<std::size_t> blocks_done{0};
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t first_error_index = 0;
    std::exception_ptr error;

    /// Claims and runs blocks until the range is spent. `helper_blocks`
    /// (when non-null) counts blocks claimed by queue helpers rather than
    /// the owning caller.
    void drain(std::atomic<unsigned long long>* helper_blocks = nullptr);
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;

  Stopwatch epoch_;  // wall-clock origin for the task observer
  TaskObserver observer_;
  std::atomic<unsigned long long> parallel_for_calls_{0};
  std::atomic<unsigned long long> blocks_total_{0};
  std::atomic<unsigned long long> blocks_by_helpers_{0};
};

}  // namespace fgp::util
