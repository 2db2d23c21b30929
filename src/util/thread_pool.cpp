#include "util/thread_pool.h"

#include <algorithm>
#include <memory>

namespace fgp::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 2;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.parallel_for_calls = parallel_for_calls_.load(std::memory_order_relaxed);
  s.blocks_total = blocks_total_.load(std::memory_order_relaxed);
  s.blocks_by_helpers = blocks_by_helpers_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::set_task_observer(TaskObserver observer) {
  observer_ = std::move(observer);
}

void ThreadPool::ForState::drain(std::atomic<unsigned long long>* helper_blocks) {
  for (;;) {
    const std::size_t b = next_block.fetch_add(1);
    if (b >= num_blocks) return;
    if (helper_blocks) helper_blocks->fetch_add(1, std::memory_order_relaxed);
    const std::size_t begin = b * block;
    const std::size_t end = std::min(n, begin + block);
    for (std::size_t i = begin; i < end; ++i) {
      // Run *every* index even after a failure: callers rely on all side
      // effects happening before parallel_for returns.
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard lock(mu);
        if (!error || i < first_error_index) {
          first_error_index = i;
          error = std::current_exception();
        }
      }
    }
    if (blocks_done.fetch_add(1) + 1 == num_blocks) {
      // Last block: wake the owning caller, which may already be waiting.
      std::lock_guard lock(mu);
      done_cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const double begin_s = observer_ ? epoch_.seconds() : 0.0;
  auto state = std::make_shared<ForState>();
  state->fn = &fn;
  state->n = n;
  // Block-chunk the range: ~4 blocks per worker keeps the queue short while
  // still letting fast workers steal from slow ones. The block size is a
  // function of the *pool size* only, which is wall-clock bookkeeping — any
  // determinism-sensitive partition (e.g. the runtime's chunk blocks) is
  // computed by the caller before dispatch.
  const std::size_t target = std::max<std::size_t>(1, workers_.size() * 4);
  state->block = std::max<std::size_t>(1, (n + target - 1) / target);
  state->num_blocks = (n + state->block - 1) / state->block;

  // Enqueue helpers for idle workers; the caller participates regardless, so
  // even with zero helpers (or a fully busy pool) the range completes.
  const std::size_t helpers =
      std::min(workers_.size(), state->num_blocks > 0 ? state->num_blocks - 1
                                                      : std::size_t{0});
  {
    std::lock_guard lock(mu_);
    if (!stop_)
      for (std::size_t h = 0; h < helpers; ++h)
        tasks_.push([state, counter = &blocks_by_helpers_] {
          state->drain(counter);
        });
  }
  if (helpers > 0) cv_.notify_all();

  state->drain();
  parallel_for_calls_.fetch_add(1, std::memory_order_relaxed);
  blocks_total_.fetch_add(state->num_blocks, std::memory_order_relaxed);
  {
    std::unique_lock lock(state->mu);
    state->done_cv.wait(lock, [&] {
      return state->blocks_done.load() == state->num_blocks;
    });
    if (state->error) std::rethrow_exception(state->error);
  }
  if (observer_) observer_(n, begin_s, epoch_.seconds());
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace fgp::util
