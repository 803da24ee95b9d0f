// Measurement campaigns: R independent runs of a trace on the randomized
// platform.
//
// Determinism contract: run i always uses seed mix64(i, master_seed), so a
// campaign's sample is a pure function of (trace, machine, master_seed,
// first_run, runs) — independent of thread count and scheduling. This is
// what lets the convergence driver extend a campaign incrementally and
// lets every bench be reproduced exactly.
//
// Engine v2: campaigns execute on the process-wide persistent ThreadPool
// (util/pool.hpp) and write directly into caller-owned memory
// (`run_campaign_into`), so a convergence iteration costs zero thread
// spawns and zero sample copies. The v1 spawn-per-call engine is kept as
// `run_campaign_spawn` — the equivalence baseline for tests and benches.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/machine.hpp"
#include "util/pool.hpp"

namespace mbcr::platform {

struct CampaignConfig {
  std::uint64_t master_seed = 42;
  /// Concurrency bound. v1 engine: threads spawned (0 = hardware
  /// concurrency). v2 engine: cap on concurrent chunk claimants including
  /// the caller (0 = the whole pool), so `threads = 1` keeps a campaign
  /// on the calling thread — e.g. to leave cores free on a shared host.
  unsigned threads = 0;
  /// Runs per pool chunk (v2 engine). Small enough to load-balance across
  /// workers, large enough that a chunk claim (a few atomics) is noise.
  std::size_t grain = 64;
  /// Runs replayed per `Machine::run_batch` call inside a claimed chunk
  /// (trace-major batching). Any width produces the identical sample —
  /// per-run seeding makes runs independent — so this is a pure
  /// throughput knob. `<= 1` disables batching (per-run `run_once`).
  /// A batch never crosses a chunk claim, so the effective width is also
  /// capped by `grain` — raise both to batch wider than one chunk.
  /// 32 measured best on the medium/large suite kernels
  /// (bench/micro_throughput --json, committed BENCH_replay.json: 1.87x
  /// on crc L1-only; L2 flavors and matmult 1.2-1.5x run to run); tiny
  /// traces are batch-setup-bound and replay FASTER per run, so the
  /// engine falls back to per-run replay below `kBatchMinTraceEntries`
  /// entries. Larger widths stop paying once the batch state outgrows
  /// L1d.
  std::size_t batch = 32;
};

/// Traces shorter than this replay per-run regardless of
/// `CampaignConfig::batch`: per-run placement/RNG setup dominates tiny
/// traces and batching only adds state. (Sample-invariant either way;
/// full adaptive width selection is a ROADMAP item.)
inline constexpr std::size_t kBatchMinTraceEntries = 1024;

/// Campaign engine v2 (streaming sink): executes runs
/// [first_run, first_run + runs) on `pool` and writes each run's execution
/// time to out[i - first_run]. `out` must hold `runs` doubles. The caller
/// owns the buffer — no allocation, no copy. `pool = nullptr` uses the
/// process-wide shared pool.
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

/// Campaign engine v1: spawns `config.threads` fresh std::threads per call
/// and joins them before returning. Produces bit-identical samples to the
/// v2 engine (the determinism contract above); kept as the reference
/// baseline for engine-equivalence tests and the old-vs-new bench.
std::vector<double> run_campaign_spawn(const Machine& machine,
                                       const CompactTrace& trace,
                                       std::size_t runs,
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
