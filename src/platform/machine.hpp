// The modeled execution platform (paper Sec. 4): pipelined in-order core,
// separate 4KB 2-way 32B/line IL1 and DL1 with random placement and random
// replacement, caches flushed before each run — optionally backed by a
// shared unified L2 (random or deterministic LRU, cache/hierarchy.hpp).
//
// `Machine::run_once` — the measurement campaigns' hot path — replays a
// compact trace under a fresh per-run placement (derived from the run
// seed) and returns the cycle count. The compact trace's folded guaranteed
// hits are never replayed: they add a per-trace constant.
//
// Each L1 side is replayed on its own, by one loop at either level: the
// sides are separate caches with separate replacement streams. Per side
// the run places its lines and finds the lines alone in their set. Under
// random replacement a hit changes nothing and draws nothing, so the side
// is walked from miss to miss: the next miss is the earliest next access
// of a line absent from the cache (a line not used yet, or one evicted
// and accessed again), and its cost follows the misses, not the entries.
// A lone line misses once and then always hits: its first access draws
// its one victim choice, to keep every later draw where it was. A side
// whose lines are all alone draws nothing: it misses once per line.
// Nothing per run scales with the number of sets: tag state is held for
// the shared sets only.
//
// Single level, a run's cycles are the per-side base costs plus
// `mem_latency` per miss on either side. Behind an L2 the skip is just as
// exact: an L1 hit never reaches the L2, and the L2 never reaches back
// into an L1. So each side hands its misses, with their trace positions,
// to a list, and the L2 is probed by dense unified id with the two lists
// merged in trace order: exactly the L1 misses, in the order a
// trace-order replay of both sides would send them. The L2 holds tags
// only for the sets its unified lines land in, so no level's state scales
// with its number of sets.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/hierarchy.hpp"
#include "cpu/pipeline.hpp"
#include "cpu/trace.hpp"
#include "util/rng.hpp"

namespace mbcr::platform {

/// Reusable per-thread scratch for `Machine::run_once`. A campaign worker
/// allocates one workspace and replays hundreds of thousands of runs
/// through it, instead of paying vector allocations per run. Every run
/// re-initializes the contents it reads, so reuse never leaks state
/// between runs (or between machines/traces of different geometry —
/// buffers just grow).
struct RunWorkspace {
  struct SetCount {
    std::uint32_t set;    ///< set index, or empty
    std::uint32_t lines;  ///< lines placed in it, then its slot
  };
  /// Lines counted per set, one level or side at a time: open addressing
  /// over set indices, >= 2 entries per line.
  std::vector<SetCount> set_table;
  /// Per line of the L1 side being replayed: its shared set's slot, or
  /// lone.
  std::vector<std::uint32_t> line_slot;
  /// `ways` tags per shared set of the L1 side being replayed.
  std::vector<std::uint32_t> shared_tags;
  /// Per line of the L1 side being replayed: where it is in its
  /// `CompactTrace::line_entries`.
  std::vector<std::uint32_t> line_cursor;
  /// The evicted lines of the L1 side being replayed that are accessed
  /// again, as a min-heap of `next position << 32 | dense id`: at most one
  /// key per line.
  std::vector<std::uint64_t> absent;
  /// Two levels: each side's L1 misses in trace order, at most one per
  /// side entry, as the L2 will see them.
  struct L1Miss {
    std::uint32_t pos;  ///< position in trace order (`CompactTrace::ipos`)
    std::uint32_t uid;  ///< unified line id
  };
  std::vector<L1Miss> imisses, dmisses;
  /// Two levels: per unified line, the slot of its L2 set, and `ways` L2
  /// tags per slot. Every buffer is O(lines·ways) or O(entries).
  std::vector<std::uint32_t> l2_slot, l2_tags;

  /// The runs' `replay.*` counter tallies not yet flushed, per flavor
  /// (single level, random L2, LRU L2): runs, entries, L1 misses walked
  /// on sides with a shared set, and runs with no shared set on either
  /// side. Runs made while collection is on add here, in plain memory,
  /// so the per-run cost stays within the collection-overhead budget.
  std::array<std::array<std::uint64_t, 4>, 3> pending_counts{};

  RunWorkspace() = default;
  RunWorkspace(const RunWorkspace&) = delete;
  RunWorkspace& operator=(const RunWorkspace&) = delete;
  /// Flushes what is pending.
  ~RunWorkspace();

  /// Adds the pending tallies to the `replay.*` counters and clears them.
  /// A campaign flushes after each chunk; the convenience `run_once`
  /// after each run. Whoever reads the counters between runs on their
  /// own workspace flushes it first.
  void flush_counters();
};

struct MachineConfig {
  CacheConfig il1 = CacheConfig::paper_l1();
  CacheConfig dl1 = CacheConfig::paper_l1();
  /// Optional shared L2 behind both L1 sides (disabled by default, which
  /// reproduces the paper's single-level platform bit for bit).
  HierarchyConfig l2;
  TimingParams timing;
};

class Machine {
public:
  explicit Machine(const MachineConfig& config = {});

  /// One measurement run: fresh random placement + replacement derived
  /// from `run_seed`, cold caches, full trace replay. Returns cycles.
  /// Convenience overload over a per-thread reusable workspace.
  std::uint64_t run_once(const CompactTrace& trace,
                         std::uint64_t run_seed) const;

  /// Same run, same result, but all scratch state lives in `ws`, and the
  /// run's counter tallies wait there until `ws` is flushed.
  /// Bit-identical to the convenience overload.
  std::uint64_t run_once(const CompactTrace& trace, std::uint64_t run_seed,
                         RunWorkspace& ws) const;

  /// Reference implementation via the generic RandomCache/LruCache models
  /// (slow but obviously correct); used by tests to validate the fast
  /// replay, including every two-level configuration.
  std::uint64_t run_once_reference(const MemTrace& trace,
                                   std::uint64_t run_seed) const;

  /// The architectural ceiling: the cycles of `trace` with every access
  /// missing at every level. No run can cost more. Needs every access, so
  /// it takes the full trace, not the folded compact one.
  std::uint64_t all_miss_cycles(const MemTrace& trace) const;

  const MachineConfig& config() const { return config_; }

private:
  MachineConfig config_;
};

}  // namespace mbcr::platform
