#include "platform/machine.hpp"

#include <vector>

#include "cache/lru_cache.hpp"
#include "cache/random_cache.hpp"
#include "obs/metrics.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace mbcr::platform {

namespace {

// Per-run sub-seed derivation: keep in sync between the fast replay and
// the reference implementation so both produce bit-identical results.
constexpr std::uint64_t kIl1Placement = 1;
constexpr std::uint64_t kDl1Placement = 2;
constexpr std::uint64_t kIl1Replacement = 3;
constexpr std::uint64_t kDl1Replacement = 4;
constexpr std::uint64_t kL2Placement = 5;
constexpr std::uint64_t kL2Replacement = 6;

constexpr std::uint32_t kEmpty = 0xffffffffu;

/// Flat-array cache state for one side, keyed by dense line ids. Tag and
/// set-map storage is borrowed from a RunWorkspace so campaign workers can
/// reuse it run after run; every field is (re)written here, so a recycled
/// buffer behaves exactly like a fresh one.
class FastSide {
public:
  FastSide(const CacheConfig& cfg, const std::vector<Addr>& lines,
           std::uint64_t placement_seed, std::uint64_t replacement_seed,
           std::vector<std::uint32_t>& tags, std::vector<std::uint32_t>& set_of)
      : ways_(cfg.ways), rng_(replacement_seed), tags_(tags), set_of_(set_of) {
    tags_.assign(static_cast<std::size_t>(cfg.sets) * cfg.ways, kEmpty);
    set_of_.resize(lines.size());
    for (std::size_t l = 0; l < lines.size(); ++l) {
      set_of_[l] = placement_set(cfg.placement, lines[l], placement_seed,
                                 cfg.sets);
    }
  }

  bool access(std::uint32_t line_id) {
    std::uint32_t* base = tags_.data() +
                          static_cast<std::size_t>(set_of_[line_id]) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w] == line_id) return true;
    }
    base[rng_.uniform(ways_)] = line_id;
    return false;
  }

private:
  std::uint32_t ways_;
  Xoshiro256 rng_;
  std::vector<std::uint32_t>& tags_;
  std::vector<std::uint32_t>& set_of_;
};

/// The unified L2 under deterministic LRU: dense unified ids, per-set tags
/// kept MRU-first (mirrors LruCache exactly), modulo placement on the real
/// line numbers.
class FastLruL2 {
public:
  FastLruL2(const CacheConfig& cfg, const std::vector<Addr>& lines,
            std::vector<std::uint32_t>& tags, std::vector<std::uint32_t>& set_of)
      : ways_(cfg.ways), tags_(tags), set_of_(set_of) {
    tags_.assign(static_cast<std::size_t>(cfg.sets) * cfg.ways, kEmpty);
    set_of_.resize(lines.size());
    for (std::size_t l = 0; l < lines.size(); ++l) {
      set_of_[l] = static_cast<std::uint32_t>(lines[l] % cfg.sets);
    }
  }

  bool access(std::uint32_t line_id) {
    std::uint32_t* base = tags_.data() +
                          static_cast<std::size_t>(set_of_[line_id]) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w] == line_id) {
        for (std::uint32_t i = w; i > 0; --i) base[i] = base[i - 1];
        base[0] = line_id;
        return true;
      }
    }
    for (std::uint32_t i = ways_ - 1; i > 0; --i) base[i] = base[i - 1];
    base[0] = line_id;
    return false;
  }

private:
  std::uint32_t ways_;
  std::vector<std::uint32_t>& tags_;
  std::vector<std::uint32_t>& set_of_;
};

/// Single-level replay: an L1 miss pays the memory latency directly.
/// Kept in its own function (like the two-level loop) so each replay
/// flavor gets its own tight codegen. `cycles` starts at the folded hits'
/// cost.
std::uint64_t replay_single_level(const CompactTrace& trace, FastSide& il1,
                                  FastSide& dl1, const TimingParams& t,
                                  std::uint64_t cycles) {
#ifdef MBCR_FAULT_INJECTION
  // Deliberate `replay` fault (fault-injection builds only): the first DL1
  // miss of a run forgets its memory-latency penalty. See util/fault.hpp.
  bool fault_pending = fault::armed().kind == fault::Kind::kReplay;
#endif
  for (const CompactTrace::Entry& e : trace.entries) {
    if (e.is_instr) {
      cycles += t.issue_cycles;
      if (!il1.access(e.line_id)) cycles += t.mem_latency;
    } else {
      cycles += t.dl1_hit_cycles;
      if (!dl1.access(e.line_id)) {
#ifdef MBCR_FAULT_INJECTION
        if (fault_pending) {
          fault_pending = false;
          continue;
        }
#endif
        cycles += t.mem_latency;
      }
    }
  }
  return cycles;
}

/// Two-level replay: L1 miss -> probe L2 (`l2_latency` cycles), L2 miss ->
/// memory latency on top. Templated on the L2 model so the per-access loop
/// stays branch-free on policy. `cycles` starts at the folded hits' cost.
template <typename L2Model>
std::uint64_t replay_hierarchy(const CompactTrace& trace, FastSide& il1,
                               FastSide& dl1, L2Model& l2,
                               const TimingParams& t,
                               std::uint64_t l2_latency,
                               std::uint64_t cycles) {
  for (const CompactTrace::Entry& e : trace.entries) {
    if (e.is_instr) {
      cycles += t.issue_cycles;
      if (!il1.access(e.line_id)) {
        cycles += l2_latency;
        if (!l2.access(trace.iline_uid[e.line_id])) cycles += t.mem_latency;
      }
    } else {
      cycles += t.dl1_hit_cycles;
      if (!dl1.access(e.line_id)) {
        cycles += l2_latency;
        if (!l2.access(trace.dline_uid[e.line_id])) cycles += t.mem_latency;
      }
    }
  }
  return cycles;
}

/// Replay-path tallies, one pair per machine flavor. Flushed once per run
/// (one fused pair-add), so the crc replay path stays within the <2%
/// collection-overhead budget the bench gate pins.
struct FlavorCounters {
  obs::Counter runs;
  obs::Counter entries;
};

enum class Flavor : std::size_t { kSingleLevel = 0, kL2Random, kL2Lru };

const FlavorCounters& flavor_counters(Flavor f) {
  static const FlavorCounters table[3] = {
      {obs::counter("replay.single_level.runs"),
       obs::counter("replay.single_level.entries")},
      {obs::counter("replay.l2_random.runs"),
       obs::counter("replay.l2_random.entries")},
      {obs::counter("replay.l2_lru.runs"),
       obs::counter("replay.l2_lru.entries")},
  };
  return table[static_cast<std::size_t>(f)];
}

Flavor flavor_of(const MachineConfig& config) {
  if (!config.l2.enabled) return Flavor::kSingleLevel;
  return config.l2.policy == L2Policy::kRandom ? Flavor::kL2Random
                                               : Flavor::kL2Lru;
}

}  // namespace

Machine::Machine(const MachineConfig& config) : config_(config) {
  config_.il1.validate();
  config_.dl1.validate();
  config_.l2.validate(config_.il1.line_bytes);
  if (config_.l2.enabled && config_.dl1.line_bytes != config_.il1.line_bytes) {
    throw std::invalid_argument(
        "a unified L2 requires IL1 and DL1 to share one line size");
  }
}

std::uint64_t Machine::run_once(const CompactTrace& trace,
                                std::uint64_t run_seed) const {
  // One workspace per thread, reused for the life of the process: the
  // convenience overload must not pay (or measure) per-run allocations.
  static thread_local RunWorkspace ws;
  return run_once(trace, run_seed, ws);
}

std::uint64_t Machine::run_once(const CompactTrace& trace,
                                std::uint64_t run_seed,
                                RunWorkspace& ws) const {
  if (obs::enabled()) {
    const FlavorCounters& fc = flavor_counters(flavor_of(config_));
    obs::add_pair(fc.runs, 1, fc.entries, trace.size());
  }
  FastSide il1(config_.il1, trace.ilines, mix64(kIl1Placement, run_seed),
               mix64(kIl1Replacement, run_seed), ws.il1_tags, ws.il1_set_of);
  FastSide dl1(config_.dl1, trace.dlines, mix64(kDl1Placement, run_seed),
               mix64(kDl1Replacement, run_seed), ws.dl1_tags, ws.dl1_set_of);
  const TimingParams& t = config_.timing;
  // The folded accesses are guaranteed hits: base cost only.
  const std::uint64_t folded = trace.folded_ifetches * t.issue_cycles +
                               trace.folded_loads * t.dl1_hit_cycles;
  if (config_.l2.enabled) {
    if (config_.l2.policy == L2Policy::kRandom) {
      FastSide l2(config_.l2.l2, trace.ulines, mix64(kL2Placement, run_seed),
                  mix64(kL2Replacement, run_seed), ws.l2_tags, ws.l2_set_of);
      return replay_hierarchy(trace, il1, dl1, l2, t, config_.l2.latency,
                              folded);
    }
    FastLruL2 l2(config_.l2.l2, trace.ulines, ws.l2_tags, ws.l2_set_of);
    return replay_hierarchy(trace, il1, dl1, l2, t, config_.l2.latency,
                            folded);
  }
  return replay_single_level(trace, il1, dl1, t, folded);
}

std::uint64_t Machine::run_once_reference(const MemTrace& trace,
                                          std::uint64_t run_seed) const {
  RandomCache il1(config_.il1, mix64(kIl1Placement, run_seed),
                  mix64(kIl1Replacement, run_seed));
  RandomCache dl1(config_.dl1, mix64(kDl1Placement, run_seed),
                  mix64(kDl1Replacement, run_seed));
  if (config_.l2.enabled) {
    if (config_.l2.policy == L2Policy::kRandom) {
      RandomCache l2(config_.l2.l2, mix64(kL2Placement, run_seed),
                     mix64(kL2Replacement, run_seed));
      return execute_trace_hierarchy(trace, il1, dl1, l2, config_.timing,
                                     config_.l2.latency);
    }
    LruCache l2(config_.l2.l2);
    return execute_trace_hierarchy(trace, il1, dl1, l2, config_.timing,
                                   config_.l2.latency);
  }
  return execute_trace(trace, il1, dl1, config_.timing);
}

std::uint64_t Machine::all_miss_cycles(const MemTrace& trace) const {
  const TimingParams& t = config_.timing;
  const std::uint64_t extra = config_.l2.enabled ? config_.l2.latency : 0;
  std::uint64_t cycles = 0;
  for (const Access& a : trace.accesses) {
    cycles += t.cost(a.kind, /*hit=*/false) + extra;
  }
  return cycles;
}

}  // namespace mbcr::platform
