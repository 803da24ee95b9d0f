#include "util/pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/metrics.hpp"

namespace mbcr {

namespace {

/// Pool health metrics. Per-worker utilization is derived offline as
/// busy_ns / (workers * wall): the registry stays label-free, so we tally
/// aggregate busy time and let the reader divide.
struct PoolMetrics {
  obs::Counter tasks = obs::counter("pool.tasks");
  obs::Counter busy_ns = obs::counter("pool.busy_ns");
  obs::Histogram chunk_us = obs::histogram("pool.chunk_us");
  obs::Gauge queue_depth = obs::gauge("pool.queue_depth");
  obs::Gauge workers = obs::gauge("pool.workers");
};

const PoolMetrics& pool_metrics() {
  static const PoolMetrics m;
  return m;
}

}  // namespace

/// Shared state of one parallel_for: an atomic cursor over [0, n) plus
/// completion accounting. Held by shared_ptr so a worker that dequeues the
/// helper task after the caller already finished finds only an exhausted
/// cursor, never a dangling reference.
struct ThreadPool::ForJob {
  std::size_t n = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};

  std::mutex mutex;
  std::condition_variable all_done;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  // Workers count as idle from birth: a parallel_for issued before they
  // even reach their first wait must still enqueue helpers for them, or
  // the first campaign after pool construction would run serial.
  idle_.store(workers, std::memory_order_relaxed);
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::enqueue(std::shared_ptr<ForJob> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
    if (obs::enabled()) {
      pool_metrics().queue_depth.set(static_cast<double>(queue_.size()));
      pool_metrics().workers.set(static_cast<double>(threads_.size()));
    }
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  // Counted idle on entry (see constructor); busy only while helping. A
  // helper that finds its job's chunks all claimed (its caller finished
  // without it) did no work, so it counts no task and no busy time.
  for (;;) {
    std::shared_ptr<ForJob> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    idle_.fetch_sub(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      const auto t0 = std::chrono::steady_clock::now();
      if (drive(job)) {
        pool_metrics().tasks.add(1);
        pool_metrics().busy_ns.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
      }
    } else {
      drive(job);
    }
    idle_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ThreadPool::drive(const std::shared_ptr<ForJob>& job) {
  const std::size_t chunks = (job->n + job->grain - 1) / job->grain;
  for (bool claimed = false;; claimed = true) {
    const std::size_t c = job->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks) return claimed;
    if (!job->failed.load(std::memory_order_acquire)) {
      const std::size_t begin = c * job->grain;
      const std::size_t end = std::min(job->n, begin + job->grain);
      try {
        if (obs::enabled()) {
          const auto t0 = std::chrono::steady_clock::now();
          (*job->body)(begin, end);
          pool_metrics().chunk_us.record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count()));
        } else {
          (*job->body)(begin, end);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(job->mutex);
        if (!job->error) job->error = std::current_exception();
        job->failed.store(true, std::memory_order_release);
      }
    }
    if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
      std::lock_guard<std::mutex> lock(job->mutex);
      job->all_done.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t max_helpers) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks = (n + grain - 1) / grain;

  auto job = std::make_shared<ForJob>();
  job->n = n;
  job->grain = grain;
  job->body = &body;

  // Enough helpers to cover every chunk, but never more than the workers
  // currently idle: busy workers (e.g. all pinned on an outer batched
  // analysis) would only dequeue a stale closure over an exhausted cursor
  // long after this call completed. Under-counting is harmless — the
  // caller claims every chunk itself if nobody helps.
  const std::size_t helpers = std::min(
      {static_cast<std::size_t>(idle_.load(std::memory_order_relaxed)),
       chunks > 1 ? chunks - 1 : 0, max_helpers});
  for (std::size_t i = 0; i < helpers; ++i) enqueue(job);

  drive(job);  // the caller claims chunks too — re-entrancy + no idle caller

  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->all_done.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == chunks;
    });
  }
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace mbcr
