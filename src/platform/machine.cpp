#include "platform/machine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
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

/// `RunWorkspace::line_slot` of a line alone in its set.
constexpr std::uint32_t kLone = 0xffffffffu;
/// Marks a `RunWorkspace::SetCount` whose `lines` now holds its slot.
constexpr std::uint32_t kSlotAssigned = 0x80000000u;

/// Numbers densely from 0 the sets that hold at least `min_lines` of `n`
/// lines: `slot[l]` holds line l's set on entry, and on return the number
/// of that set, or `kLone` if the set holds fewer. Returns how many sets
/// got a number. The lines are counted per set in an open-addressing table
/// of >= 2·n entries keyed by set index, so nothing here grows with the
/// number of sets.
std::uint32_t number_sets(std::uint32_t n, std::uint32_t min_lines,
                          std::vector<RunWorkspace::SetCount>& table,
                          std::uint32_t* slot) {
  if (n == 0) return 0;
  const int bits = std::bit_width(2 * n - 1);
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  table.assign(mask + 1, {kEmpty, 0});
  for (std::uint32_t l = 0; l < n; ++l) {
    const std::uint32_t set = slot[l];
    std::size_t h = (set * 0x9e3779b97f4a7c15ULL) >> (64 - bits);
    while (table[h].set != kEmpty && table[h].set != set) h = (h + 1) & mask;
    table[h].set = set;
    ++table[h].lines;
    slot[l] = static_cast<std::uint32_t>(h);
  }
  std::uint32_t numbered = 0;
  for (std::uint32_t l = 0; l < n; ++l) {
    RunWorkspace::SetCount& c = table[slot[l]];
    if (c.lines < min_lines) {
      slot[l] = kLone;
      continue;
    }
    if ((c.lines & kSlotAssigned) == 0) c.lines = kSlotAssigned | numbered++;
    slot[l] = c.lines & ~kSlotAssigned;
  }
  return numbered;
}

/// Gives each line of one L1 side the slot of its set if it shares that
/// set, or `kLone`. Returns the number of shared sets.
std::uint32_t classify_l1_side(const CacheConfig& cfg,
                               const std::vector<Addr>& lines,
                               std::uint64_t placement_seed, RunWorkspace& ws,
                               std::uint32_t* slot) {
  for (std::size_t l = 0; l < lines.size(); ++l) {
    slot[l] = placement_set(cfg.placement, lines[l], placement_seed,
                            cfg.sets);
  }
  return number_sets(static_cast<std::uint32_t>(lines.size()), 2,
                     ws.set_table, slot);
}

/// One L1 side of a single-level run: its misses, and whether any of its
/// lines shared a set (false means nothing was simulated).
struct SideRun {
  std::uint64_t misses;
  bool conflicts;
};

/// Replays one side of a single-level run, simulating only the lines that
/// share a set. A lone line misses on its first access and hits ever
/// after: that first access draws its victim choice, which keeps every
/// later draw at its stream position, and its other accesses are skipped.
/// A side whose lines are all alone returns one miss per line without a
/// scan or a draw. Each shared set gets a dense slot of `ways` tags, so no
/// buffer grows with the number of sets.
SideRun replay_side(const CacheConfig& cfg, const std::vector<Addr>& lines,
                    const std::vector<std::uint32_t>& seq,
                    std::uint64_t placement_seed,
                    std::uint64_t replacement_seed, RunWorkspace& ws) {
  const auto n = static_cast<std::uint32_t>(lines.size());
  if (n < 2) return {n, false};
  ws.line_slot.resize(n);
  const std::uint32_t shared =
      classify_l1_side(cfg, lines, placement_seed, ws, ws.line_slot.data());
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

/// The unified L2 of a two-level run under random replacement: `ways`
/// tags per set its lines land in, found through `RunWorkspace::l2_slot`.
class RandomL2 {
public:
  RandomL2(std::uint32_t ways, std::uint64_t replacement_seed,
           RunWorkspace& ws)
      : ways_(ways), rng_(replacement_seed), slot_(ws.l2_slot.data()),
        tags_(ws.l2_tags.data()) {}

  bool access(std::uint32_t uid) {
    std::uint32_t* base =
        tags_ + static_cast<std::size_t>(slot_[uid]) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w] == uid) return true;
    }
    base[rng_.uniform(ways_)] = uid;
    return false;
  }

private:
  std::uint32_t ways_;
  Xoshiro256 rng_;
  const std::uint32_t* slot_;
  std::uint32_t* tags_;
};

/// The unified L2 under deterministic LRU, on the same per-set slots: tags
/// kept MRU-first (mirrors LruCache exactly).
class LruL2 {
public:
  LruL2(std::uint32_t ways, RunWorkspace& ws)
      : ways_(ways), slot_(ws.l2_slot.data()), tags_(ws.l2_tags.data()) {}

  bool access(std::uint32_t uid) {
    std::uint32_t* base =
        tags_ + static_cast<std::size_t>(slot_[uid]) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w] == uid) {
        for (std::uint32_t i = w; i > 0; --i) base[i] = base[i - 1];
        base[0] = uid;
        return true;
      }
    }
    for (std::uint32_t i = ways_ - 1; i > 0; --i) base[i] = base[i - 1];
    base[0] = uid;
    return false;
  }

private:
  std::uint32_t ways_;
  const std::uint32_t* slot_;
  std::uint32_t* tags_;
};

/// What a two-level run counted.
struct HierarchyRun {
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t simulated = 0;  ///< entries replayed
};

/// Two-level replay of the entries that can change state: every access of
/// an L1 line that shares its set, and the first access of every other
/// line. A lone line's later accesses are L1 hits, and an L1 hit neither
/// draws nor reaches the L2, so skipping them leaves every other outcome
/// as it was, the L2's draws and LRU order included.
///
/// `ws.l1_lines` holds each line's state by combined id (see
/// `CompactTrace::line_begin`). The entries to replay are marked line by
/// line in a byte map over `entries`, then replayed in trace order, 64
/// entries at a time, so the cost follows the entries replayed rather than
/// the entries skipped. An L1 miss draws from its side's stream and probes
/// the L2 by unified id. Templated on the L2 model so the loop stays
/// branch-free on policy.
template <typename L2Model>
HierarchyRun replay_hierarchy(const CompactTrace& trace,
                              const MachineConfig& config,
                              std::uint64_t run_seed, RunWorkspace& ws,
                              L2Model& l2) {
  HierarchyRun run;
  const std::size_t n = trace.entries.size();
  ws.keep.assign((n + 63) & ~std::size_t{63}, 0);
  std::uint8_t* const keep = ws.keep.data();
  const RunWorkspace::L1Line* const lines = ws.l1_lines.data();
  for (std::size_t c = 0; c + 1 < trace.line_begin.size(); ++c) {
    const std::uint32_t* at = trace.line_entries.data() + trace.line_begin[c];
    const std::uint32_t* const end =
        lines[c].set == kLone ? at + 1
                               : trace.line_entries.data() +
                                     trace.line_begin[c + 1];
    run.simulated += static_cast<std::uint64_t>(end - at);
    for (; at != end; ++at) keep[*at] = 1;
  }

  // Indexed by `Entry::is_instr`.
  const std::uint32_t ways[2] = {config.dl1.ways, config.il1.ways};
  Xoshiro256 rng[2] = {Xoshiro256(mix64(kDl1Replacement, run_seed)),
                       Xoshiro256(mix64(kIl1Replacement, run_seed))};
  const auto dl1_offset = static_cast<std::uint32_t>(trace.ilines.size());
  std::uint32_t* const shared_tags = ws.shared_tags.data();
  const std::uint32_t stride = std::max(ways[0], ways[1]);
  for (std::size_t base = 0; base < n; base += 64) {
    // Gathers the 64 marks into one word: each byte is 0 or 1, and the
    // multiply moves the low bit of byte k of `bytes` to bit 56 + k, so mark
    // base + 8·j + k lands at bit 8·j + k. Byte k of the load is the k-th
    // byte in memory only on a little-endian host.
    static_assert(std::endian::native == std::endian::little);
    std::uint64_t marked = 0;
    for (int j = 0; j < 8; ++j) {
      std::uint64_t bytes;
      std::memcpy(&bytes, keep + base + 8 * j, sizeof bytes);
      marked |= ((bytes * 0x0102040810204080ULL) >> 56) << (8 * j);
    }
    for (; marked != 0; marked &= marked - 1) {
      const CompactTrace::Entry e =
          trace.entries[base + static_cast<std::size_t>(
                                   std::countr_zero(marked))];
      const std::uint32_t side = e.is_instr;
      const std::uint32_t c = e.line_id + (dl1_offset & (side - 1));
      const RunWorkspace::L1Line line = lines[c];
      if (line.set == kLone) {  // its one L1 miss
        rng[side].uniform(ways[side]);
      } else {
        std::uint32_t* const tags =
            shared_tags + static_cast<std::size_t>(line.set) * stride;
        bool hit = false;
        for (std::uint32_t w = 0; w < ways[side]; ++w) hit |= tags[w] == c;
        if (hit) continue;
        tags[rng[side].uniform(ways[side])] = c;
      }
      ++run.l1_misses;
      run.l2_misses += !l2.access(line.uid);
    }
  }
  return run;
}

/// Replay-path tallies, flushed once per run with one fused add, so the
/// crc replay path stays within the <2% collection-overhead budget the
/// bench gate pins.
struct SingleLevelCounters {
  obs::Counter runs;
  obs::Counter entries;
  /// Runs in which every line on both sides was alone in its set, so
  /// nothing was simulated.
  obs::Counter conflict_free_runs;
};

struct TwoLevelCounters {
  obs::Counter runs;
  obs::Counter entries;
  /// Entries the runs kept and simulated.
  obs::Counter simulated_entries;
};

const SingleLevelCounters& single_level_counters() {
  static const SingleLevelCounters c = {
      obs::counter("replay.single_level.runs"),
      obs::counter("replay.single_level.entries"),
      obs::counter("replay.single_level.conflict_free_runs")};
  return c;
}

const TwoLevelCounters& two_level_counters(bool random_l2) {
  static const TwoLevelCounters table[2] = {
      {obs::counter("replay.l2_lru.runs"),
       obs::counter("replay.l2_lru.entries"),
       obs::counter("replay.l2_lru.simulated_entries")},
      {obs::counter("replay.l2_random.runs"),
       obs::counter("replay.l2_random.entries"),
       obs::counter("replay.l2_random.simulated_entries")},
  };
  return table[random_l2];
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
    const SingleLevelCounters& c = single_level_counters();
    obs::add_triple(c.runs, 1, c.entries, trace.size(), c.conflict_free_runs,
                    !il1.conflicts && !dl1.conflicts);
  }
  const TimingParams& t = config.timing;
  return (trace.folded_ifetches + trace.iseq.size()) * t.issue_cycles +
         (trace.folded_loads + trace.dseq.size()) * t.dl1_hit_cycles +
         (il1.misses + dl1.misses) * t.mem_latency;
}

/// Two-level run: both L1 sides are classified as in single level, the
/// L2 gets one slot of `ways` tags per set its unified lines land in, and
/// `replay_hierarchy` replays the entries that can change state. Nothing
/// here scales with the number of sets at any level.
std::uint64_t run_two_level(const MachineConfig& config,
                            const CompactTrace& trace, std::uint64_t run_seed,
                            RunWorkspace& ws) {
  const std::size_t ni = trace.ilines.size();
  const std::size_t nl = ni + trace.dlines.size();
  ws.line_slot.resize(nl);
  std::uint32_t* const slot = ws.line_slot.data();
  const std::uint32_t ishared = classify_l1_side(
      config.il1, trace.ilines, mix64(kIl1Placement, run_seed), ws, slot);
  const std::uint32_t dshared =
      classify_l1_side(config.dl1, trace.dlines,
                       mix64(kDl1Placement, run_seed), ws, slot + ni);
  // The DL1's shared sets are numbered after the IL1's.
  ws.l1_lines.resize(nl);
  for (std::size_t c = 0; c < nl; ++c) {
    const bool instr = c < ni;
    ws.l1_lines[c] = {
        slot[c] == kLone ? kLone : slot[c] + (instr ? 0 : ishared),
        instr ? trace.iline_uid[c] : trace.dline_uid[c - ni]};
  }
  const std::uint32_t stride = std::max(config.il1.ways, config.dl1.ways);
  ws.shared_tags.assign(static_cast<std::size_t>(ishared + dshared) * stride,
                        kEmpty);

  const CacheConfig& l2cfg = config.l2.l2;
  const bool random = config.l2.policy == L2Policy::kRandom;
  const std::uint64_t l2_placement = mix64(kL2Placement, run_seed);
  const auto nu = static_cast<std::uint32_t>(trace.ulines.size());
  ws.l2_slot.resize(nu);
  for (std::uint32_t u = 0; u < nu; ++u) {
    const Addr line = trace.ulines[u];
    ws.l2_slot[u] = random ? placement_set(l2cfg.placement, line,
                                           l2_placement, l2cfg.sets)
                           : static_cast<std::uint32_t>(line % l2cfg.sets);
  }
  const std::uint32_t l2_sets =
      number_sets(nu, 1, ws.set_table, ws.l2_slot.data());
  ws.l2_tags.assign(static_cast<std::size_t>(l2_sets) * l2cfg.ways, kEmpty);

  HierarchyRun run;
  if (random) {
    RandomL2 l2(l2cfg.ways, mix64(kL2Replacement, run_seed), ws);
    run = replay_hierarchy(trace, config, run_seed, ws, l2);
  } else {
    LruL2 l2(l2cfg.ways, ws);
    run = replay_hierarchy(trace, config, run_seed, ws, l2);
  }
  if (obs::enabled()) {
    const TwoLevelCounters& c = two_level_counters(random);
    obs::add_triple(c.runs, 1, c.entries, trace.size(), c.simulated_entries,
                    run.simulated);
  }
  const TimingParams& t = config.timing;
  return (trace.folded_ifetches + trace.iseq.size()) * t.issue_cycles +
         (trace.folded_loads + trace.dseq.size()) * t.dl1_hit_cycles +
         run.l1_misses * config.l2.latency + run.l2_misses * t.mem_latency;
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
  return config_.l2.enabled ? run_two_level(config_, trace, run_seed, ws)
                            : run_single_level(config_, trace, run_seed, ws);
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
