#include "util/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mbcr {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10'000);
  pool.parallel_for(hits.size(), 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  // The whole point of the persistent pool: many small parallel_for calls
  // (the convergence pattern) against one set of workers.
  ThreadPool pool(4);
  std::size_t total = 0;
  for (int call = 0; call < 200; ++call) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, 8, [&](std::size_t begin, std::size_t end) {
      sum.fetch_add(end - begin);
    });
    total += sum.load();
  }
  EXPECT_EQ(total, 200u * 100u);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);  // 0 = hardware concurrency, still >= 1 worker
  EXPECT_GE(pool.workers(), 1u);
  std::atomic<int> count{0};
  pool.parallel_for(10, 3, [&](std::size_t begin, std::size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, 16, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000, 1,
                        [&](std::size_t begin, std::size_t) {
                          if (begin == 137) {
                            throw std::runtime_error("chunk 137 failed");
                          }
                        }),
      std::runtime_error);
  // The pool must survive a failed job and keep serving work.
  std::atomic<int> count{0};
  pool.parallel_for(100, 10, [&](std::size_t begin, std::size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ConcurrentParallelForFromManyThreads) {
  // Several callers share one pool at once (the job queue and the idle
  // count are shared state): every call still covers exactly its own range.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4 * 50 * 64);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 4; ++t) {
    callers.emplace_back([&pool, &hits, t] {
      for (std::size_t call = 0; call < 50; ++call) {
        const std::size_t base = (t * 50 + call) * 64;
        pool.parallel_for(64, 4, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            hits[base + i].fetch_add(1);
          }
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A chunk may itself fan out on the same pool (a study's path loop does
  // this: each path runs its campaigns on the pool). Cooperative chunk
  // claiming guarantees progress even when every worker is occupied by an
  // outer task.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, 1, [&](std::size_t, std::size_t) {
    pool.parallel_for(32, 4, [&](std::size_t begin, std::size_t end) {
      inner_total.fetch_add(static_cast<int>(end - begin));
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 32);
}

TEST(ThreadPool, MaxHelpersZeroRunsOnCallingThread) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  std::atomic<int> covered{0};
  pool.parallel_for(
      1000, 10,
      [&](std::size_t begin, std::size_t end) {
        covered.fetch_add(static_cast<int>(end - begin));
        if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
      },
      /*max_helpers=*/0);
  EXPECT_EQ(covered.load(), 1000);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, FreshPoolParallelizesImmediately) {
  // Workers count as idle from construction: the very first parallel_for
  // must be eligible for help (no serial first-campaign cliff). We can't
  // assert scheduling, but we can assert correctness on a brand-new pool
  // with long-running chunks.
  ThreadPool pool(4);
  std::atomic<int> covered{0};
  pool.parallel_for(64, 1, [&](std::size_t begin, std::size_t end) {
    covered.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(covered.load(), 64);
}

TEST(ThreadPool, SharedPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().workers(), 1u);
}

}  // namespace
}  // namespace mbcr
