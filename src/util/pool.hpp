// Persistent worker pool for measurement campaigns (campaign engine v2).
//
// The v1 engine spawned and joined a fresh set of std::threads for every
// campaign chunk; under MBPTA convergence that means thousands of thread
// creations per analysis. This pool keeps its workers alive for the life
// of the process and hands out work through an atomic chunk counter, so a
// campaign chunk costs one enqueue + a few atomic increments instead of
// pthread_create/join.
//
// Design notes:
//  * `parallel_for` is cooperative: the calling thread claims chunks too,
//    so it makes progress even when every worker is busy. That makes the
//    pool safely re-entrant — a chunk running on a worker may itself call
//    `parallel_for` (a study's path loop does exactly that: each path's
//    campaigns fan out on the same pool) without risk of deadlock.
//  * Work assignment never affects results: campaign determinism comes
//    from per-run seeding (`mix64(run_index, master_seed)`), so any thread
//    may execute any chunk.
//  * The first exception thrown by any chunk is captured and rethrown on
//    the waiting thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mbcr {

class ThreadPool {
public:
  /// `workers = 0` sizes the pool to the hardware concurrency; the pool
  /// always has at least one worker. (Serial execution needs no special
  /// mode: `parallel_for` from the calling thread claims every chunk
  /// itself whenever the workers are busy.)
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  /// Process-wide pool shared by every campaign; constructed on first use.
  static ThreadPool& shared();

  /// Runs `body(begin, end)` over every grain-sized chunk of [0, n).
  /// Chunks are claimed from an atomic counter by the calling thread and
  /// by idle workers; returns when all of [0, n) is done. Rethrows the
  /// first chunk exception (remaining chunks are skipped, not run).
  /// `max_helpers` caps how many workers may join in (the calling thread
  /// always participates, so `max_helpers = 0` runs serially).
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t max_helpers = SIZE_MAX);

  /// `max_helpers` for a concurrency cap that counts the calling thread:
  /// 0 means the whole pool, 1 the calling thread alone.
  static std::size_t helpers_for(unsigned threads) {
    return threads == 0 ? SIZE_MAX : threads - 1;
  }

private:
  struct ForJob;

  /// Queues one helper for `job`: the worker that takes it claims the
  /// job's chunks alongside the caller.
  void enqueue(std::shared_ptr<ForJob> job);
  void worker_loop();
  /// Claims and runs chunks of `job` until none is left; returns whether
  /// it claimed any.
  static bool drive(const std::shared_ptr<ForJob>& job);

  std::vector<std::thread> threads_;
  std::deque<std::shared_ptr<ForJob>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::atomic<unsigned> idle_{0};  ///< workers parked in worker_loop's wait
  bool stopping_ = false;
};

}  // namespace mbcr
