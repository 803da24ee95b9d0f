#include "platform/machine.hpp"

#include <algorithm>
#include <bit>
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

/// Flat-array cache state for one cache of a two-level run, keyed by dense
/// line ids. Tag and set-map storage is borrowed from a RunWorkspace so
/// campaign workers can reuse it run after run; every field is (re)written
/// here, so a recycled buffer behaves exactly like a fresh one.
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

/// One L1 side of a single-level run: its misses, and whether any of its
/// lines shared a set (false means nothing was simulated).
struct SideRun {
  std::uint64_t misses;
  bool conflicts;
};

/// `RunWorkspace::line_slot` of a line alone in its set.
constexpr std::uint32_t kLone = 0xffffffffu;
/// Marks a `RunWorkspace::SetCount` whose `lines` now holds its slot.
constexpr std::uint32_t kSlotAssigned = 0x80000000u;

/// Replays one side of a single-level run, simulating only the lines that
/// share a set. A lone line misses on its first access and hits ever
/// after: that first access draws its victim choice, which keeps every
/// later draw at its stream position, and its other accesses are skipped.
/// A side whose lines are all alone returns one miss per line without a
/// scan or a draw.
///
/// Lines are counted per set in an open-addressing table of >= 2·lines
/// slots keyed by set index, and each shared set gets a dense slot of
/// `ways` tags, so no buffer grows with the number of sets.
SideRun replay_side(const CacheConfig& cfg, const std::vector<Addr>& lines,
                    const std::vector<std::uint32_t>& seq,
                    std::uint64_t placement_seed,
                    std::uint64_t replacement_seed, RunWorkspace& ws) {
  const auto n = static_cast<std::uint32_t>(lines.size());
  if (n < 2) return {n, false};
  const int bits = std::bit_width(2 * n - 1);
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  ws.set_table.assign(mask + 1, {kEmpty, 0});
  ws.line_slot.resize(n);
  for (std::uint32_t l = 0; l < n; ++l) {
    const std::uint32_t set =
        placement_set(cfg.placement, lines[l], placement_seed, cfg.sets);
    std::size_t h = (set * 0x9e3779b97f4a7c15ULL) >> (64 - bits);
    while (ws.set_table[h].set != kEmpty && ws.set_table[h].set != set) {
      h = (h + 1) & mask;
    }
    ws.set_table[h].set = set;
    ++ws.set_table[h].lines;
    ws.line_slot[l] = static_cast<std::uint32_t>(h);
  }
  std::uint32_t shared = 0;
  for (std::uint32_t l = 0; l < n; ++l) {
    RunWorkspace::SetCount& c = ws.set_table[ws.line_slot[l]];
    if (c.lines == 1) {
      ws.line_slot[l] = kLone;
      continue;
    }
    if ((c.lines & kSlotAssigned) == 0) c.lines = kSlotAssigned | shared++;
    ws.line_slot[l] = c.lines & ~kSlotAssigned;
  }
  if (shared == 0) return {n, false};

  const std::uint32_t ways = cfg.ways;
  ws.shared_tags.assign(static_cast<std::size_t>(shared) * ways, kEmpty);
  Xoshiro256 rng(replacement_seed);
  std::uint64_t misses = 0;
  // Block by block, first keep (without a branch) the accesses that need
  // work: every shared-line access and each lone line's first one. Then
  // replay those in trace order. Which lines are lone changes every run,
  // so deciding per access in one loop would mispredict on every change.
  constexpr std::size_t kBlock = 512;
  std::uint32_t kept[kBlock];
  for (std::size_t begin = 0; begin < seq.size(); begin += kBlock) {
    const std::size_t end = std::min(seq.size(), begin + kBlock);
    std::size_t m = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t e = seq[i];
      kept[m] = e;
      m += static_cast<std::size_t>(
          (ws.line_slot[e & ~CompactTrace::kFirstUse] != kLone) |
          (e >= CompactTrace::kFirstUse));
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint32_t id = kept[j] & ~CompactTrace::kFirstUse;
      const std::uint32_t slot = ws.line_slot[id];
      if (slot == kLone) {  // its one miss
        rng.uniform(ways);
        ++misses;
        continue;
      }
      std::uint32_t* tags =
          ws.shared_tags.data() + static_cast<std::size_t>(slot) * ways;
      bool hit = false;
      for (std::uint32_t w = 0; w < ways; ++w) hit |= tags[w] == id;
      if (!hit) {
        tags[rng.uniform(ways)] = id;
        ++misses;
      }
    }
  }
  return {misses, true};
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
/// (one fused add, with `conflict_free_runs` riding along on single
/// level), so the crc replay path stays within the <2% collection-overhead
/// budget the bench gate pins.
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

/// Single-level runs in which every line on both sides was alone in its
/// set, so nothing was simulated.
const obs::Counter& conflict_free_runs() {
  static const obs::Counter c =
      obs::counter("replay.single_level.conflict_free_runs");
  return c;
}

/// Single-level run: each L1 side replays on its own (see replay_side).
std::uint64_t run_single_level(const MachineConfig& config,
                               const CompactTrace& trace,
                               std::uint64_t run_seed, RunWorkspace& ws) {
  const SideRun il1 = replay_side(config.il1, trace.ilines, trace.iseq,
                                  mix64(kIl1Placement, run_seed),
                                  mix64(kIl1Replacement, run_seed), ws);
  SideRun dl1 = replay_side(config.dl1, trace.dlines, trace.dseq,
                            mix64(kDl1Placement, run_seed),
                            mix64(kDl1Replacement, run_seed), ws);
#ifdef MBCR_FAULT_INJECTION
  // Deliberate `replay` fault (fault-injection builds only): the first DL1
  // miss of a run forgets its memory-latency penalty. See util/fault.hpp.
  if (dl1.misses > 0 && fault::armed().kind == fault::Kind::kReplay) {
    --dl1.misses;
  }
#endif
  if (obs::enabled()) {
    const FlavorCounters& fc = flavor_counters(Flavor::kSingleLevel);
    obs::add_triple(fc.runs, 1, fc.entries, trace.size(),
                    conflict_free_runs(), !il1.conflicts && !dl1.conflicts);
  }
  const TimingParams& t = config.timing;
  return (trace.folded_ifetches + trace.iseq.size()) * t.issue_cycles +
         (trace.folded_loads + trace.dseq.size()) * t.dl1_hit_cycles +
         (il1.misses + dl1.misses) * t.mem_latency;
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
  if (!config_.l2.enabled) {
    return run_single_level(config_, trace, run_seed, ws);
  }
  if (obs::enabled()) {
    const FlavorCounters& fc = flavor_counters(
        config_.l2.policy == L2Policy::kRandom ? Flavor::kL2Random
                                               : Flavor::kL2Lru);
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
