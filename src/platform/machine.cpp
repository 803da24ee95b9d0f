#include "platform/machine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string>
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

/// Sizes `v` to `n` and returns its data. A growing buffer gets exactly
/// `n`, not a geometric step, so each buffer stays bounded by the largest
/// run it served.
template <typename T>
T* sized(std::vector<T>& v, std::size_t n) {
  v.reserve(n);
  v.resize(n);
  return v.data();
}

/// One L1 side of a run: its misses, the entries it kept (see
/// `replay_l1_side`), and whether any of its lines shared a set (false
/// means nothing was simulated).
struct SideRun {
  std::uint64_t misses;
  std::uint64_t kept;
  bool conflicts;
};

/// The 64 keep marks at `keep` as one word: mark k at bit k. Each byte is
/// 0 or 1, and the multiply moves the low bit of byte k of `bytes` to bit
/// 56 + k. Byte k of the load is the k-th byte in memory only on a
/// little-endian host.
std::uint64_t gather_marks(const std::uint8_t* keep) {
  static_assert(std::endian::native == std::endian::little);
  std::uint64_t marked = 0;
  for (int j = 0; j < 8; ++j) {
    std::uint64_t bytes;
    std::memcpy(&bytes, keep + 8 * j, sizeof bytes);
    marked |= ((bytes * 0x0102040810204080ULL) >> 56) << (8 * j);
  }
  return marked;
}

/// Replays one L1 side of a run (`instr` picks IL1 or DL1), simulating
/// only the lines that share a set, and hands each miss to
/// `sink(position in the side's sequence, dense line id)` in trace order.
///
/// A lone line misses on its first access and hits ever after: that first
/// access draws its victim choice, which keeps every later draw at its
/// stream position, and its other accesses are skipped. A shared line's
/// later access is skipped too when no other line of its set came since
/// its previous access (its `CompactTrace::line_gaps` mask misses the
/// set's): nothing could have evicted it, so it hits. The entries to
/// replay are marked line by line (see `CompactTrace::line_begin`) in a
/// byte map over the side's sequence, then walked in order, 64 marks at a
/// time, so the cost follows the entries kept rather than the entries
/// skipped. A side whose lines are all alone draws nothing and sinks each
/// line's first use, in line order, which is trace order; with a sink that
/// does nothing, as at one level, that costs nothing. Each shared set gets
/// a dense slot of `ways` tags, and the lone lines one spare slot, so no
/// buffer grows with the number of sets.
template <typename Sink>
SideRun replay_l1_side(const CacheConfig& cfg, const CompactTrace& trace,
                       bool instr, std::uint64_t run_seed, RunWorkspace& ws,
                       Sink&& sink) {
  const std::vector<Addr>& lines = instr ? trace.ilines : trace.dlines;
  const std::vector<std::uint32_t>& seq = instr ? trace.iseq : trace.dseq;
  const std::uint32_t* const line_begin =
      trace.line_begin.data() + (instr ? 0 : trace.ilines.size());
  const std::uint32_t* const positions = trace.line_entries.data();
  const std::uint64_t* const gaps = trace.line_gaps.data();
  const auto n = static_cast<std::uint32_t>(lines.size());

  std::uint32_t* const slot = sized(ws.line_slot, n);
  std::uint32_t shared = 0;
  if (n >= 2) {
    const std::uint64_t placement_seed =
        mix64(instr ? kIl1Placement : kDl1Placement, run_seed);
    for (std::uint32_t l = 0; l < n; ++l) {
      slot[l] =
          placement_set(cfg.placement, lines[l], placement_seed, cfg.sets);
    }
    shared = number_sets(n, 2, ws.set_table, slot);
  }
  if (shared == 0) {
    for (std::uint32_t l = 0; l < n; ++l) sink(positions[line_begin[l]], l);
    return {n, n, false};
  }

  // Every line's first use is kept. The lines that share a set are listed
  // as they go by, without a branch (which lines are lone changes every
  // run), and each shared set gets the mask of its lines' ids mod 64. The
  // map is all zero between runs: the walk below clears every block it
  // finds marked, so a run only has to grow it.
  const std::size_t m = seq.size();
  const std::size_t padded = (m + 63) & ~std::size_t{63};
  if (ws.keep.size() < padded) sized(ws.keep, padded);
  std::uint8_t* const keep = ws.keep.data();
  std::uint32_t* const sharing = sized(ws.sharing_lines, n);
  std::uint32_t num_sharing = 0;
  for (std::uint32_t l = 0; l < n; ++l) {
    keep[positions[line_begin[l]]] = 1;
    sharing[num_sharing] = l;
    num_sharing += slot[l] != kLone;
  }
  ws.set_masks.assign(shared, 0);
  std::uint64_t* const set_mask = ws.set_masks.data();
  for (std::uint32_t i = 0; i < num_sharing; ++i) {
    const std::uint32_t l = sharing[i];
    set_mask[slot[l]] |= std::uint64_t{1} << (l % 64);
  }
  // A sharing line's later accesses are kept when their gap meets its
  // set's mask. The first three are looked at without a loop branch (a
  // line with fewer looks at its last one again, or at its first use,
  // whose all-ones gap meets any mask), as most lines have only a few.
  for (std::uint32_t i = 0; i < num_sharing; ++i) {
    const std::uint32_t l = sharing[i];
    const std::uint32_t first = line_begin[l];
    const std::uint32_t count = line_begin[l + 1] - first;
    const std::uint64_t lines_in_set = set_mask[slot[l]];
    const std::uint32_t* const at = positions + first;
    const std::uint64_t* const gap = gaps + first;
    for (std::uint32_t k = 1; k < 4; ++k) {
      const std::uint32_t j = std::min(k, count - 1);
      keep[at[j]] = std::uint8_t{(gap[j] & lines_in_set) != 0};
    }
    for (std::uint32_t k = 4; k < count; ++k) {
      keep[at[k]] = std::uint8_t{(gap[k] & lines_in_set) != 0};
    }
  }

  // One slot of `ways` tags per shared set, and a spare slot after them
  // for the lone lines (`kLone` is above every slot, so `min` picks it): a
  // lone line's one kept access finds only other lines' tags there, so it
  // misses and draws as in a set of its own.
  const std::uint32_t ways = cfg.ways;
  ws.shared_tags.assign(static_cast<std::size_t>(shared + 1) * ways, kEmpty);
  std::uint32_t* const shared_tags = ws.shared_tags.data();
  Xoshiro256 rng(mix64(instr ? kIl1Replacement : kDl1Replacement, run_seed));
  std::uint64_t misses = 0;
  std::uint64_t kept = 0;
  for (std::size_t base = 0; base < m; base += 64) {
    std::uint64_t marked = gather_marks(keep + base);
    if (marked != 0) std::memset(keep + base, 0, 64);
    kept += static_cast<std::uint64_t>(std::popcount(marked));
    for (; marked != 0; marked &= marked - 1) {
      const auto p = static_cast<std::uint32_t>(
          base + static_cast<std::size_t>(std::countr_zero(marked)));
      const std::uint32_t id = seq[p];
      std::uint32_t* const tags =
          shared_tags + static_cast<std::size_t>(std::min(slot[id], shared)) *
                            ways;
      bool hit = false;
      for (std::uint32_t w = 0; w < ways; ++w) hit |= tags[w] == id;
      if (hit) continue;
      tags[rng.uniform(ways)] = id;
      ++misses;
      sink(p, id);
    }
  }
  return {misses, kept, true};
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

/// Probes the L2 with both sides' L1 misses merged into trace order, and
/// returns its misses.
template <typename L2Model>
std::uint64_t probe_l2(L2Model l2, const RunWorkspace::L1Miss* i,
                       const RunWorkspace::L1Miss* const iend,
                       const RunWorkspace::L1Miss* d,
                       const RunWorkspace::L1Miss* const dend) {
  std::uint64_t misses = 0;
  while (i != iend || d != dend) {
    const bool instr = d == dend || (i != iend && i->pos < d->pos);
    misses += !l2.access((instr ? i++ : d++)->uid);
  }
  return misses;
}

/// Per-run replay tallies of one flavor: runs, entries, entries kept (see
/// `SideRun`), and runs in which every L1 line was alone in its set, so
/// nothing was simulated. Bound to each thread's cells once and flushed
/// once per run, so the crc replay path stays within the <2%
/// collection-overhead budget the bench gate pins.
using ReplayCounters = obs::LocalCounters<4>;

ReplayCounters replay_counters(const std::string& flavor) {
  return ReplayCounters({obs::counter(flavor + ".runs"),
                         obs::counter(flavor + ".entries"),
                         obs::counter(flavor + ".simulated_entries"),
                         obs::counter(flavor + ".conflict_free_runs")});
}

void count_run(const MachineConfig& config, const CompactTrace& trace,
               const SideRun& il1, const SideRun& dl1) {
  if (!obs::enabled()) return;
  thread_local const ReplayCounters single =
      replay_counters("replay.single_level");
  thread_local const ReplayCounters lru = replay_counters("replay.l2_lru");
  thread_local const ReplayCounters random =
      replay_counters("replay.l2_random");
  const ReplayCounters& c = !config.l2.enabled ? single
                            : config.l2.policy == L2Policy::kRandom ? random
                                                                   : lru;
  c.add({1, trace.size(), il1.kept + dl1.kept,
         !il1.conflicts && !dl1.conflicts});
}

/// Single-level run: each L1 side replays on its own (see replay_l1_side)
/// and its misses go nowhere but the count.
std::uint64_t run_single_level(const MachineConfig& config,
                               const CompactTrace& trace,
                               std::uint64_t run_seed, RunWorkspace& ws) {
  const auto no_sink = [](std::uint32_t, std::uint32_t) {};
  const SideRun il1 =
      replay_l1_side(config.il1, trace, true, run_seed, ws, no_sink);
  SideRun dl1 = replay_l1_side(config.dl1, trace, false, run_seed, ws, no_sink);
#ifdef MBCR_FAULT_INJECTION
  // Deliberate `replay` fault (fault-injection builds only): the first DL1
  // miss of a run forgets its memory-latency penalty. See util/fault.hpp.
  if (dl1.misses > 0 && fault::armed().kind == fault::Kind::kReplay) {
    --dl1.misses;
  }
#endif
  count_run(config, trace, il1, dl1);
  const TimingParams& t = config.timing;
  return (trace.folded_ifetches + trace.iseq.size()) * t.issue_cycles +
         (trace.folded_loads + trace.dseq.size()) * t.dl1_hit_cycles +
         (il1.misses + dl1.misses) * t.mem_latency;
}

/// Two-level run: each L1 side replays on its own as in single level,
/// listing its misses by trace position and unified id; the L2 gets one
/// slot of `ways` tags per set its unified lines land in, and is probed
/// with the two lists merged in trace order. Nothing here scales with the
/// number of sets at any level.
std::uint64_t run_two_level(const MachineConfig& config,
                            const CompactTrace& trace, std::uint64_t run_seed,
                            RunWorkspace& ws) {
  RunWorkspace::L1Miss* const ibegin = sized(ws.imisses, trace.iseq.size());
  RunWorkspace::L1Miss* const dbegin = sized(ws.dmisses, trace.dseq.size());
  RunWorkspace::L1Miss* iend = ibegin;
  RunWorkspace::L1Miss* dend = dbegin;
  const SideRun il1 = replay_l1_side(
      config.il1, trace, true, run_seed, ws,
      [&](std::uint32_t p, std::uint32_t id) {
        *iend++ = {trace.ipos[p], trace.iline_uid[id]};
      });
  const SideRun dl1 = replay_l1_side(
      config.dl1, trace, false, run_seed, ws,
      [&](std::uint32_t p, std::uint32_t id) {
        *dend++ = {trace.dpos[p], trace.dline_uid[id]};
      });

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

  const std::uint64_t l2_misses =
      random ? probe_l2(RandomL2(l2cfg.ways, mix64(kL2Replacement, run_seed),
                                 ws),
                        ibegin, iend, dbegin, dend)
             : probe_l2(LruL2(l2cfg.ways, ws), ibegin, iend, dbegin, dend);
  count_run(config, trace, il1, dl1);
  const TimingParams& t = config.timing;
  return (trace.folded_ifetches + trace.iseq.size()) * t.issue_cycles +
         (trace.folded_loads + trace.dseq.size()) * t.dl1_hit_cycles +
         (il1.misses + dl1.misses) * config.l2.latency +
         l2_misses * t.mem_latency;
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
