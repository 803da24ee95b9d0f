// TAC's probability model and minimum-runs computation (paper Sec. 2 /
// Sec. 3.1).
//
// Under hash-based random placement every line lands in a uniformly
// random set, independently per line, re-drawn each run. A specific group
// of k distinct lines is co-mapped into one set with probability
//     p1 = S * (1/S)^k = (1/S)^(k-1).
// Relevant conflict events (impact above threshold) must be observed in
// the measurement campaign except with probability below `target`:
//     (1 - p_event)^R <= target   =>   R >= ln(target) / ln(1 - p_event),
// where p_event aggregates all concrete groups of comparable impact
// (the paper's Sec. 3.1.2 counts 6 interchangeable 5-groups exactly so).
// The reproduced worked examples: p=(1/8)^4 -> R > 84873;
// 6 combos -> R > 14138.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/hierarchy.hpp"
#include "cpu/trace.hpp"
#include "tac/conflict.hpp"

namespace mbcr::tac {

struct TacConfig {
  /// Max admissible probability of never observing a relevant event
  /// ("in line with the most stringent fault probabilities allowed for
  /// hardware components", paper Sec. 2).
  double target_miss_prob = 1e-9;
  /// An event is relevant if its extra cycles exceed this fraction of the
  /// typical (baseline) execution time...
  double impact_rel_threshold = 0.01;
  /// ...and its extra misses exceed this floor.
  double min_extra_misses = 4.0;
  /// Ignore event classes rarer than this: layouts below the platform's
  /// exceedance budget are treated as negligible (cf. TAC [24]).
  double ignore_event_prob = 1e-7;
  /// A group larger than W+1 forms a new event only if its impact exceeds
  /// the strongest W+1 impact by this factor (see analyze_sequence).
  double larger_group_margin = 1.25;
  std::size_t max_runs_cap = 2'000'000;
  ConflictConfig conflict;
};

/// One relevant event class after impact-bucketing.
struct TacEvent {
  double extra_misses = 0;        ///< representative impact of the bucket
  double probability = 0;         ///< per-run probability of observing it
  double combination_count = 0;   ///< concrete groups aggregated
  std::size_t group_size = 0;
  std::size_t required_runs = 0;
  std::vector<Addr> example_lines;
};

struct TacSequenceResult {
  std::vector<TacEvent> events;        ///< relevant, by required_runs desc
  std::size_t required_runs = 0;       ///< max over relevant events (>= 1)
  std::size_t groups_considered = 0;
  double baseline_cycles = 0;
};

/// Minimum runs R so that an event of probability `p` is observed except
/// with probability `target`.
std::size_t runs_for_probability(double p, double target);

/// Analyzes one cache side. `baseline_cycles` is the typical execution
/// time used for the relative impact threshold; `miss_penalty_cycles`
/// converts misses to cycles. `threads` caps the impact estimation's
/// pool claimants (see enumerate_conflict_groups); it never changes the
/// result.
TacSequenceResult analyze_sequence(std::span<const Addr> line_seq,
                                   const CacheConfig& cache,
                                   double baseline_cycles,
                                   double miss_penalty_cycles,
                                   const TacConfig& config = {},
                                   unsigned threads = 0);

struct TacTraceResult {
  TacSequenceResult il1;
  TacSequenceResult dl1;
  /// Unified-L2 conflict analysis. Populated only for an enabled
  /// random-policy L2 (a deterministic LRU L2 adds no placement
  /// randomness, hence no probabilistic events to cover); its
  /// `required_runs` stays 0 otherwise.
  TacSequenceResult l2;
  std::size_t required_runs = 0;  ///< max over all analyzed levels
};

/// Full-trace TAC: analyzes instruction and data sides against their
/// respective caches and takes the max.
///
/// With an enabled hierarchy the model extends to two levels:
///  * The per-miss penalty charged to L1 conflict events becomes
///    `l2.latency + mem_latency` for a random L2 (an extra L1 miss probes
///    the L2 and may miss there too — the conservative bound), and
///    `l2.latency` for a deterministic LRU L2 that provably retains every
///    line of the trace (per-set unified working set <= ways, checked on
///    the deterministic modulo mapping; otherwise the conservative bound
///    again).
///  * For a random L2, the unified line sequence (both sides, program
///    order) is additionally analyzed against the L2 geometry with the
///    full memory latency per extra miss. Using the unfiltered sequence
///    overestimates the traffic the L2 actually sees (L1 hits never reach
///    it), which only inflates impacts — conservative in the direction
///    MBPTA representativeness needs.
/// Placement flavor is honored per level: under random-modulo placement
/// (CacheConfig::placement), conflict classes that provably cannot
/// co-map — every combination they stand for contains two same-block
/// lines — are dropped from the event set; a class that merely might
/// clash keeps its full combination count (conservative).
TacTraceResult analyze_trace(const MemTrace& trace, const CacheConfig& il1,
                             const CacheConfig& dl1, double baseline_cycles,
                             double miss_penalty_cycles,
                             const TacConfig& config = {},
                             const HierarchyConfig& l2 = {},
                             unsigned threads = 0);

}  // namespace mbcr::tac
