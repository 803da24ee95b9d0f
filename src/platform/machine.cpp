#include "platform/machine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <string>
#include <vector>

#include "cache/lru_cache.hpp"
#include "cache/random_cache.hpp"
#include "obs/metrics.hpp"
#include "util/fault.hpp"
#include "util/gallop.hpp"
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

/// One L1 side of a run: its misses, and whether any of its lines shared a
/// set (false means nothing was simulated).
struct SideRun {
  std::uint64_t misses;
  bool conflicts;
};

/// Replays one L1 side of a run (`instr` picks IL1 or DL1) from miss to
/// miss, and hands each miss to `sink(position in the side's sequence,
/// dense line id)` in trace order.
///
/// Random replacement keeps no recency state: a hit changes nothing and
/// draws nothing. So the side's next miss is the earliest next access of
/// any line absent from its L1, and the walk visits only misses. The
/// absent lines come from two sources: the lines not used yet, taken in
/// dense-id order, which is first-use order, and the evicted lines that
/// are accessed again, in a min-heap of `next position << 32 | id`. Each
/// miss takes the smaller key of the two and draws its victim way. A lone
/// line misses once and then always hits: its first use only draws, to
/// keep every later draw at its stream position. A shared line takes the
/// drawn way of its set's slot, and the line it evicts, if any, goes back
/// on the heap at its next access (`next_after` over its
/// `CompactTrace::line_entries`). A side whose lines are all alone draws
/// nothing and sinks each line's first use, in line order, which is trace
/// order; with a sink that does nothing, as at one level, that costs
/// nothing. Each shared set gets a dense slot of `ways` tags, so no buffer
/// grows with the number of sets.
template <typename Sink>
SideRun replay_l1_side(const CacheConfig& cfg, const CompactTrace& trace,
                       bool instr, std::uint64_t run_seed, RunWorkspace& ws,
                       Sink&& sink) {
  const std::vector<Addr>& lines = instr ? trace.ilines : trace.dlines;
  const std::uint32_t* const line_begin =
      trace.line_begin.data() + (instr ? 0 : trace.ilines.size());
  const std::uint32_t* const positions = trace.line_entries.data();
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
    return {n, false};
  }

  const std::uint32_t ways = cfg.ways;
  ws.shared_tags.assign(static_cast<std::size_t>(shared) * ways, kEmpty);
  std::uint32_t* const shared_tags = ws.shared_tags.data();
  // Per line: the `line_entries` index of its next access while on the
  // heap, of the access that loaded it while cached.
  std::uint32_t* const cursor = sized(ws.line_cursor, n);
  std::vector<std::uint64_t>& heap = ws.absent;
  heap.clear();
  heap.reserve(n);
  const auto key = [&](std::uint32_t entry, std::uint32_t id) {
    cursor[id] = entry;
    return (std::uint64_t{positions[entry]} << 32) | id;
  };
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  Xoshiro256 rng(mix64(instr ? kIl1Replacement : kDl1Replacement, run_seed));
  std::uint64_t misses = 0;
  std::uint32_t unused = 0;  // lines below it have been used
  std::uint64_t first_use = key(line_begin[0], 0);
  while (true) {
    const std::uint64_t evicted = heap.empty() ? kNone : heap.front();
    const bool from_heap = evicted < first_use;
    const std::uint64_t next = from_heap ? evicted : first_use;
    if (next == kNone) break;
    const auto now = static_cast<std::uint32_t>(next >> 32);
    const auto id = static_cast<std::uint32_t>(next);
    ++misses;
    sink(now, id);
    if (!from_heap) {
      ++unused;
      first_use = unused < n ? key(line_begin[unused], unused) : kNone;
    }
    const std::uint32_t way = rng.uniform(ways);
    std::uint64_t push = kNone;
    if (slot[id] != kLone) {
      std::uint32_t& tag =
          shared_tags[static_cast<std::size_t>(slot[id]) * ways + way];
      const std::uint32_t victim = tag;
      tag = id;
      if (victim != kEmpty) {
        const std::uint32_t begin = line_begin[victim];
        const std::uint32_t end = line_begin[victim + 1];
        const auto entry = begin + static_cast<std::uint32_t>(next_after(
                                       {positions + begin, end - begin},
                                       cursor[victim] - begin, now));
        if (entry < end) push = key(entry, victim);
      }
    }
    if (from_heap) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      heap.pop_back();
    }
    if (push != kNone) {
      heap.push_back(push);
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
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

/// The `replay.*` counters that `RunWorkspace::pending_counts` flushes
/// into, in its order.
const std::array<std::array<obs::Counter, 4>, 3>& replay_counters() {
  static const auto counters = [] {
    std::array<std::array<obs::Counter, 4>, 3> c;
    const char* const flavors[] = {"replay.single_level", "replay.l2_random",
                                   "replay.l2_lru"};
    const char* const names[] = {".runs", ".entries", ".simulated_entries",
                                 ".conflict_free_runs"};
    for (std::size_t f = 0; f < c.size(); ++f) {
      for (std::size_t i = 0; i < c[f].size(); ++i) {
        c[f][i] = obs::counter(std::string(flavors[f]) + names[i]);
      }
    }
    return c;
  }();
  return counters;
}

/// Tallies one run into `ws.pending_counts` (see `RunWorkspace`).
void count_run(const MachineConfig& config, const CompactTrace& trace,
               const SideRun& il1, const SideRun& dl1, RunWorkspace& ws) {
  if (!obs::enabled()) return;
  const std::size_t flavor = !config.l2.enabled                     ? 0
                             : config.l2.policy == L2Policy::kRandom ? 1
                                                                     : 2;
  const auto walked = [](const SideRun& side) {
    return side.conflicts ? side.misses : 0;
  };
  std::array<std::uint64_t, 4>& c = ws.pending_counts[flavor];
  c[0] += 1;
  c[1] += trace.size();
  c[2] += walked(il1) + walked(dl1);
  c[3] += !il1.conflicts && !dl1.conflicts;
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
  count_run(config, trace, il1, dl1, ws);
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
  count_run(config, trace, il1, dl1, ws);
  const TimingParams& t = config.timing;
  return (trace.folded_ifetches + trace.iseq.size()) * t.issue_cycles +
         (trace.folded_loads + trace.dseq.size()) * t.dl1_hit_cycles +
         (il1.misses + dl1.misses) * config.l2.latency +
         l2_misses * t.mem_latency;
}

}  // namespace

RunWorkspace::~RunWorkspace() { flush_counters(); }

void RunWorkspace::flush_counters() {
  for (std::size_t f = 0; f < pending_counts.size(); ++f) {
    if (pending_counts[f][0] == 0) continue;  // no run, nothing to add
    const std::array<obs::Counter, 4>& counters = replay_counters()[f];
    for (std::size_t i = 0; i < counters.size(); ++i) {
      counters[i].add(pending_counts[f][i]);
    }
    pending_counts[f] = {};
  }
}

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
  const std::uint64_t cycles = run_once(trace, run_seed, ws);
  ws.flush_counters();
  return cycles;
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
