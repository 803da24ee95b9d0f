#include "platform/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/signal.hpp"

namespace mbcr::platform {

namespace {

/// Campaign-engine metrics, registered once. Instrumentation only reads
/// engine state and touches thread-local shards: the sample written to
/// `out` is bit-identical with collection on or off (pinned by
/// tests/obs/equivalence_test.cpp).
struct CampaignMetrics {
  obs::Counter runs = obs::counter("campaign.runs");
  obs::Counter chunks = obs::counter("campaign.chunks");
  obs::Gauge runs_per_sec = obs::gauge("campaign.runs_per_sec");
};

const CampaignMetrics& campaign_metrics() {
  static const CampaignMetrics m;
  return m;
}

}  // namespace

void run_campaign_into(const Machine& machine, const CompactTrace& trace,
                       std::size_t runs, double* out,
                       const CampaignConfig& config, std::size_t first_run,
                       ThreadPool* pool) {
  if (runs == 0) return;
  if (pool == nullptr) pool = &ThreadPool::shared();
  const std::size_t grain = std::max<std::size_t>(1, config.grain);
  const std::size_t max_helpers = ThreadPool::helpers_for(config.threads);
  obs::Span span("campaign");
  const auto campaign_start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> runs_done{0};
  pool->parallel_for(
      runs, grain,
      [&](std::size_t begin, std::size_t end) {
        // Graceful shutdown: a SIGINT/SIGTERM stops the campaign at the
        // next chunk claim (one relaxed load per >= grain runs). The
        // exception unwinds through the pool to the front-end, which
        // exits 128+sig; CampaignSampler's catch keeps the sample clean.
        util::throw_if_shutdown();
        // One workspace per pool thread, reused across every chunk,
        // campaign, trace, and machine this thread ever touches; each run
        // streams straight into the sink.
        static thread_local RunWorkspace ws;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t seed = mix64(first_run + i, config.master_seed);
          out[i] = static_cast<double>(machine.run_once(trace, seed, ws));
        }
        // Once per chunk (>= grain runs), outside the replay loops: the
        // shard updates, the runs' replay tallies and the shared progress
        // cursor are invisible to the deterministic per-run seed schedule.
        ws.flush_counters();
        if (obs::enabled()) {
          const CampaignMetrics& m = campaign_metrics();
          m.runs.add(end - begin);
          m.chunks.add(1);
        }
        if (obs::progress_enabled()) {
          const std::size_t done =
              runs_done.fetch_add(end - begin,
                                  std::memory_order_relaxed) +
              (end - begin);
          obs::progress_tick("campaign", done, runs, "runs");
        }
      },
      max_helpers);
  if (obs::enabled()) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      campaign_start)
            .count();
    if (elapsed > 0.0) {
      campaign_metrics().runs_per_sec.set(static_cast<double>(runs) /
                                          elapsed);
    }
  }
}

std::vector<double> run_campaign(const Machine& machine,
                                 const CompactTrace& trace, std::size_t runs,
                                 const CampaignConfig& config,
                                 std::size_t first_run) {
  std::vector<double> times(runs);
  run_campaign_into(machine, trace, runs, times.data(), config, first_run);
  return times;
}

CampaignSampler::CampaignSampler(const Machine& machine,
                                 const CompactTrace& trace,
                                 const CampaignConfig& config)
    : machine_(machine), trace_(trace), config_(config) {}

void CampaignSampler::append_to(std::vector<double>& sample,
                                std::size_t count) {
  const std::size_t old_size = sample.size();
  sample.resize(old_size + count);
  try {
    run_campaign_into(machine_, trace_, count, sample.data() + old_size,
                      config_, next_run_);
  } catch (...) {
    // Never leave unmeasured garbage in the caller's sample: a failed
    // extension restores the buffer, and next_run_ stays put so a retry
    // re-runs the same deterministic range.
    sample.resize(old_size);
    throw;
  }
  next_run_ += count;
}

}  // namespace mbcr::platform
