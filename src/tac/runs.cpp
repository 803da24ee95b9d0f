#include "tac/runs.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/metrics.hpp"

namespace mbcr::tac {

std::size_t runs_for_probability(double p, double target) {
  if (p <= 0.0 || target <= 0.0 || target >= 1.0) return 0;
  if (p >= 1.0) return 1;
  const double r = std::log(target) / std::log1p(-p);
  return static_cast<std::size_t>(std::ceil(r));
}

TacSequenceResult analyze_sequence(std::span<const Addr> line_seq,
                                   const CacheConfig& cache,
                                   double baseline_cycles,
                                   double miss_penalty_cycles,
                                   const TacConfig& config,
                                   unsigned threads) {
  TacSequenceResult out;
  out.baseline_cycles = baseline_cycles;
  if (line_seq.empty()) {
    out.required_runs = 1;
    return out;
  }

  const ReuseProfile profile = profile_sequence(line_seq);
  const std::vector<ConflictGroup> groups =
      enumerate_conflict_groups(profile, cache, config.conflict, threads);
  out.groups_considered = groups.size();

  // Keep relevant groups and bucket them by impact (half-octaves of extra
  // misses): groups in a bucket are interchangeable evidence of the same
  // abrupt-increase event, so their probabilities aggregate.
  const double impact_floor_cycles =
      config.impact_rel_threshold * baseline_cycles;
  struct Bucket {
    double probability = 0;
    double combos = 0;
    double max_extra = 0;
    std::size_t group_size = 0;
    std::vector<Addr> example;
  };
  std::map<int, Bucket> buckets;
  // Over-capacity groups beyond the minimal size (k > W+1) describe rarer
  // layouts; they only constitute *new* events when their impact strictly
  // exceeds what the W+1 class already exposes — a 4-line co-mapping whose
  // cost matches the 3-line knee is observed through the (far likelier)
  // 3-line layouts.
  //
  // The pruning yardstick must only consider W+1 classes that can
  // actually occur: under random-modulo placement an infeasible
  // (probability-zero) class must not mask feasible larger groups.
  const std::size_t minimal_k = cache.ways + 1;
  double minimal_class_max_extra = 0.0;
  for (const ConflictGroup& g : groups) {
    if (g.group_size != minimal_k || !g.co_mappable) continue;
    minimal_class_max_extra =
        std::max(minimal_class_max_extra, g.extra_misses);
  }
  for (const ConflictGroup& g : groups) {
    const double extra_cycles = g.extra_misses * miss_penalty_cycles;
    if (g.extra_misses < config.min_extra_misses) continue;
    if (extra_cycles < impact_floor_cycles) continue;
    // Random-modulo placement: classes whose every combination contains
    // two same-block lines can never co-map and are not events at all.
    if (!g.co_mappable) continue;
    if (g.group_size > minimal_k &&
        g.extra_misses <= config.larger_group_margin *
                              minimal_class_max_extra) {
      continue;
    }
    // p1 = (1/S)^(k-1) per concrete group; aggregate over the class.
    const double p1 =
        std::pow(1.0 / static_cast<double>(cache.sets),
                 static_cast<double>(g.group_size) - 1.0);
    const double p_class =
        1.0 - std::pow(1.0 - p1, g.combination_count);
    const int key = static_cast<int>(
        std::floor(2.0 * std::log2(std::max(g.extra_misses, 1.0))));
    Bucket& b = buckets[key];
    // Union of independent layout events across classes in the bucket.
    b.probability = 1.0 - (1.0 - b.probability) * (1.0 - p_class);
    b.combos += g.combination_count;
    if (g.extra_misses > b.max_extra) {
      b.max_extra = g.extra_misses;
      b.group_size = g.group_size;
      b.example = g.representative_lines;
    }
  }

  std::size_t required = 1;
  for (const auto& [key, b] : buckets) {
    if (b.probability < config.ignore_event_prob) continue;
    TacEvent ev;
    ev.extra_misses = b.max_extra;
    ev.probability = b.probability;
    ev.combination_count = b.combos;
    ev.group_size = b.group_size;
    ev.required_runs =
        std::min(runs_for_probability(b.probability, config.target_miss_prob),
                 config.max_runs_cap);
    ev.example_lines = b.example;
    required = std::max(required, ev.required_runs);
    out.events.push_back(std::move(ev));
  }
  std::sort(out.events.begin(), out.events.end(),
            [](const TacEvent& a, const TacEvent& b) {
              return a.required_runs > b.required_runs;
            });
  out.required_runs = required;
  return out;
}

namespace {

/// Unified cache-line sequence: every access (both sides) in program
/// order — the stream a shared L2 is exposed to, before L1 filtering.
std::vector<Addr> unified_line_sequence(const MemTrace& trace,
                                        Addr line_bytes) {
  std::vector<Addr> out;
  out.reserve(trace.accesses.size());
  for (const Access& a : trace.accesses) {
    out.push_back(line_of(a.addr, line_bytes));
  }
  return out;
}

/// True iff a deterministic LRU L2 provably retains every line of `useq`
/// once loaded: under modulo placement each set's unified working set
/// fits its ways, so no line is ever evicted and every L1 re-fetch is an
/// L2 hit.
bool lru_l2_covers(const std::vector<Addr>& useq, const CacheConfig& l2) {
  std::vector<std::vector<Addr>> per_set(l2.sets);
  for (const Addr line : useq) {
    std::vector<Addr>& set = per_set[line % l2.sets];
    if (std::find(set.begin(), set.end(), line) == set.end()) {
      set.push_back(line);
      if (set.size() > l2.ways) return false;
    }
  }
  return true;
}

}  // namespace

TacTraceResult analyze_trace(const MemTrace& trace, const CacheConfig& il1,
                             const CacheConfig& dl1, double baseline_cycles,
                             double miss_penalty_cycles,
                             const TacConfig& config,
                             const HierarchyConfig& l2, unsigned threads) {
  TacTraceResult out;
  const std::vector<Addr> iseq = trace.line_sequence(true, il1.line_bytes);
  const std::vector<Addr> dseq = trace.line_sequence(false, dl1.line_bytes);

  // What one extra L1 miss costs. Single level: the memory latency. Two
  // levels: the L2 probe plus — unless a deterministic LRU L2 provably
  // retains the whole working set — the residual memory latency (a random
  // L2 can always have evicted the victim; an over-committed LRU set can
  // too).
  double l1_penalty = miss_penalty_cycles;
  std::vector<Addr> useq;
  if (l2.enabled) {
    useq = unified_line_sequence(trace, l2.l2.line_bytes);
    const bool covered =
        l2.policy == L2Policy::kLru && lru_l2_covers(useq, l2.l2);
    l1_penalty = static_cast<double>(l2.latency) +
                 (covered ? 0.0 : miss_penalty_cycles);
  }
  out.il1 = analyze_sequence(iseq, il1, baseline_cycles, l1_penalty, config,
                             threads);
  out.dl1 = analyze_sequence(dseq, dl1, baseline_cycles, l1_penalty, config,
                             threads);
  out.required_runs = std::max(out.il1.required_runs, out.dl1.required_runs);

  // Random L2: its own conflict layouts are a second probabilistic event
  // source; an extra L2 miss always pays the full memory latency.
  if (l2.enabled && l2.policy == L2Policy::kRandom) {
    out.l2 = analyze_sequence(useq, l2.l2, baseline_cycles,
                              miss_penalty_cycles, config, threads);
    out.required_runs = std::max(out.required_runs, out.l2.required_runs);
  }
  if (obs::enabled()) {
    // TAC path tallies: group/event counts are pure functions of the
    // trace and cache geometry, so the guided fuzzer can use them as
    // deterministic coverage features.
    static const obs::Counter c_analyses = obs::counter("tac.analyses");
    static const obs::Counter c_groups = obs::counter("tac.groups");
    static const obs::Counter c_events = obs::counter("tac.events");
    static const obs::Counter c_l2 = obs::counter("tac.l2_analyses");
    c_analyses.add();
    c_groups.add(out.il1.groups_considered + out.dl1.groups_considered +
                 out.l2.groups_considered);
    c_events.add(out.il1.events.size() + out.dl1.events.size() +
                 out.l2.events.size());
    if (l2.enabled) c_l2.add();
  }
  return out;
}

}  // namespace mbcr::tac
