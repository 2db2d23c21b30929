// Focused ThreadPool tests: exception propagation order, degenerate
// sizes, shutdown semantics with work still queued, and the nested /
// concurrent parallel_for contract (thread_pool.h). test_util covers the
// happy paths; these are the cases TSan and the determinism invariant
// care about — the CI tsan preset runs the stress tests below to certify
// the shared-range claiming protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace fgp::util {
namespace {

TEST(ThreadPool, ParallelForZeroTasksIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ZeroThreadsDefaultsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.parallel_for(4, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, ParallelForFirstExceptionWins) {
  // Every task throws; the lowest-index task's exception must be the one
  // rethrown regardless of completion order.
  ThreadPool pool(4);
  try {
    pool.parallel_for(16, [](std::size_t i) {
      throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(ThreadPool, ParallelForSingleFailureStillRunsEveryTask) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(32, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 7) throw std::runtime_error("7");
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "7");
  }
  // No task may still be running (or skipped) once parallel_for returns.
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> completed{0};
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  {
    ThreadPool pool(1);
    // Block the single worker so the remaining submissions stay queued,
    // then destroy the pool while they are still in the queue.
    auto gate = pool.submit([&] {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return release; });
    });
    for (int i = 0; i < 8; ++i)
      pool.submit([&] { completed.fetch_add(1); });
    {
      std::lock_guard lock(mu);
      release = true;
    }
    cv.notify_all();
    gate.get();
  }  // ~ThreadPool: stop was requested with tasks possibly still queued
  EXPECT_EQ(completed.load(), 8);
}

TEST(ThreadPool, SubmittedFutureRethrowsTypedError) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { FGP_CHECK_MSG(false, "typed failure"); });
  EXPECT_THROW(fut.get(), Error);
}

TEST(ThreadPool, NestedParallelForFromWorkerCompletes) {
  // A parallel_for body that itself calls parallel_for on the same pool
  // must complete: the nested caller claims blocks of its own range
  // instead of blocking on workers that may all be occupied (the old
  // central-queue design deadlocked here).
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(16, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 8 * 16);
}

TEST(ThreadPool, TriplyNestedParallelForOnOneWorkerDoesNotDeadlock) {
  // With a single worker no helper is ever free for the nested ranges;
  // only caller participation keeps this from hanging.
  ThreadPool pool(1);
  std::atomic<int> leaves{0};
  pool.parallel_for(3, [&](std::size_t) {
    pool.parallel_for(3, [&](std::size_t) {
      pool.parallel_for(3, [&](std::size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 27);
}

TEST(ThreadPool, ConcurrentNestedParallelForStress) {
  // Several external threads hammer one pool with overlapping
  // parallel_for calls whose bodies nest again — exactly the shape a
  // SweepRunner produces when every concurrent configuration fans its
  // chunk blocks out over the shared pool.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  callers.reserve(6);
  for (int t = 0; t < 6; ++t) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 20; ++rep) {
        pool.parallel_for(32, [&](std::size_t) {
          pool.parallel_for(4, [&](std::size_t) { total.fetch_add(1); });
        });
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(total.load(), 6 * 20 * 32 * 4);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
  // An exception thrown inside a nested range must surface through both
  // levels, and every outer index must still have run (the no-skip
  // guarantee applies per level).
  ThreadPool pool(2);
  std::atomic<int> outer_ran{0};
  try {
    pool.parallel_for(4, [&](std::size_t) {
      outer_ran.fetch_add(1);
      pool.parallel_for(8, [](std::size_t j) {
        if (j == 3) throw std::runtime_error("inner");
      });
    });
    FAIL() << "nested exception must propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inner");
  }
  EXPECT_EQ(outer_ran.load(), 4);
}

}  // namespace
}  // namespace fgp::util
