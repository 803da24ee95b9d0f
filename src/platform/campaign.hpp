// Measurement campaigns: R independent runs of a trace on the randomized
// platform.
//
// Determinism contract: run i always uses seed mix64(i, master_seed), so a
// campaign's sample is a pure function of (trace, machine, master_seed,
// first_run, runs) — independent of thread count and scheduling. This is
// what lets the convergence driver extend a campaign incrementally and
// lets every bench be reproduced exactly.
//
// Campaigns execute on the process-wide persistent ThreadPool
// (util/pool.hpp) and write directly into caller-owned memory
// (`run_campaign_into`), so a convergence iteration costs zero thread
// spawns and zero sample copies. Each run is one `Machine::run_once`: a
// campaign's sample equals the plain serial loop
// `out[i] = run_once(trace, mix64(first_run + i, master_seed))`.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/machine.hpp"
#include "util/pool.hpp"

namespace mbcr::platform {

struct CampaignConfig {
  std::uint64_t master_seed = 42;
  /// Cap on concurrent chunk claimants including the caller (0 = the whole
  /// pool), so `threads = 1` keeps a campaign on the calling thread — e.g.
  /// to leave cores free on a shared host.
  unsigned threads = 0;
  /// Runs per pool chunk. Small enough to load-balance across workers,
  /// large enough that a chunk claim (a few atomics) is noise.
  std::size_t grain = 64;
};

/// Streaming sink: executes runs [first_run, first_run + runs) on `pool`
/// and writes each run's execution time to out[i - first_run]. `out` must
/// hold `runs` doubles. The caller owns the buffer — no allocation, no
/// copy. `pool = nullptr` uses the process-wide shared pool.
void run_campaign_into(const Machine& machine, const CompactTrace& trace,
                       std::size_t runs, double* out,
                       const CampaignConfig& config = {},
                       std::size_t first_run = 0, ThreadPool* pool = nullptr);

/// Executes runs [first_run, first_run + runs) and returns their execution
/// times in run order. Convenience wrapper over `run_campaign_into`.
std::vector<double> run_campaign(const Machine& machine,
                                 const CompactTrace& trace, std::size_t runs,
                                 const CampaignConfig& config = {},
                                 std::size_t first_run = 0);

/// Stateful incremental sampler over the same deterministic run sequence;
/// adapts a campaign to mbpta::converge_stream().
class CampaignSampler {
public:
  CampaignSampler(const Machine& machine, const CompactTrace& trace,
                  const CampaignConfig& config = {});

  /// Streaming sink: appends the next `count` execution times directly
  /// onto `sample` (runs are numbered consecutively across calls). One
  /// buffer growth, no intermediate chunk vector.
  void append_to(std::vector<double>& sample, std::size_t count);

  std::size_t runs_done() const { return next_run_; }

private:
  const Machine& machine_;
  const CompactTrace& trace_;
  CampaignConfig config_;
  std::size_t next_run_ = 0;
};

}  // namespace mbcr::platform
