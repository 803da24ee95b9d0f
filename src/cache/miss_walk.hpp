// The miss-to-miss walk of random-replacement sets: the one loop behind
// the L1 replay (`Machine::run_once`, every set of an L1 side) and TAC's
// group impacts (`tac::group_extra_misses`, one set).
//
// Random replacement keeps no recency state: a hit changes nothing and
// draws nothing. Between two misses every access is to a line already in
// its set, so the next miss is the earliest next access of any line
// absent from the cache, and the walk visits only misses. The absent
// lines come from two sources: the lines not used yet, taken in id order,
// which the caller makes first-use order, and the evicted lines that are
// accessed again, in a min-heap of `next position << 32 | id`. Each miss
// takes the smaller key of the two, goes to the sink and draws its victim
// way. A lone line (alone in its set) misses once and then always hits:
// its first use only draws, to keep every later draw at its stream
// position. A line in a set takes the drawn way of its set's slot, and
// the line it evicts, if any, goes back on the heap at its next access
// (`next_after`). A draw may land on a still-empty way, so more lines
// than the overflow of a set can be absent at once; nothing counts that
// specially. Misses come out in position order with the draws of a full
// position-order replay, so every miss and every draw equals that
// replay's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/gallop.hpp"
#include "util/rng.hpp"

namespace mbcr {

/// The slot of a line alone in its set.
inline constexpr std::uint32_t kLone = 0xffffffffu;

/// Reusable scratch of `walk_misses`. Each buffer is sized by the walk it
/// serves, never by the number of sets: O(lines) or O(slots·ways).
struct MissWalkScratch {
  /// Per line: the index into its positions of its next access while on
  /// the heap, of the access that loaded it while cached.
  std::vector<std::uint32_t> cursor;
  /// The evicted lines accessed again, as a min-heap of
  /// `next position << 32 | id`: at most one key per line.
  std::vector<std::uint64_t> absent;
  /// `ways` tags per slot: the line ids cached in each set.
  std::vector<std::uint32_t> tags;
};

/// Walks lines `0 .. n-1` through `slots` sets of `ways` ways under random
/// replacement, from miss to miss, and returns the misses. Line ids must
/// be in first-use order. `positions(id)` gives line `id`'s access
/// positions, ascending and distinct across lines; `slot(id)` gives its
/// set's slot below `slots`, or `kLone`. Each miss draws
/// `rng.uniform(ways)` and goes to `sink(position, id)`, in position order.
template <typename Positions, typename Slot, typename Sink>
std::uint64_t walk_misses(std::uint32_t n, Positions&& positions,
                          Slot&& slot, std::uint32_t slots,
                          std::uint32_t ways, Xoshiro256& rng,
                          MissWalkScratch& scratch, Sink&& sink) {
  if (n == 0) return 0;
  constexpr std::uint32_t kEmpty = 0xffffffffu;
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  // Exact sizes, not geometric steps: each buffer stays bounded by the
  // largest walk it served.
  scratch.tags.assign(std::size_t{slots} * ways, kEmpty);
  scratch.cursor.reserve(n);
  scratch.cursor.resize(n);
  scratch.absent.clear();
  scratch.absent.reserve(n);
  std::uint32_t* const tags = scratch.tags.data();
  std::uint32_t* const cursor = scratch.cursor.data();
  std::vector<std::uint64_t>& heap = scratch.absent;
  const auto key = [&](std::uint32_t id, std::uint32_t at,
                       std::uint32_t position) {
    cursor[id] = at;
    return (std::uint64_t{position} << 32) | id;
  };
  std::uint64_t misses = 0;
  std::uint32_t unused = 0;  // lines below it have been used
  std::uint64_t first_use = key(0, 0, positions(0)[0]);
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
      first_use = unused < n ? key(unused, 0, positions(unused)[0]) : kNone;
    }
    const std::uint32_t way = rng.uniform(ways);
    std::uint64_t push = kNone;
    if (const std::uint32_t in = slot(id); in != kLone) {
      std::uint32_t& tag = tags[std::size_t{in} * ways + way];
      const std::uint32_t victim = tag;
      tag = id;
      if (victim != kEmpty) {
        const std::span<const std::uint32_t> pos = positions(victim);
        const auto at = static_cast<std::uint32_t>(
            next_after(pos, cursor[victim], now));
        if (at < pos.size()) push = key(victim, at, pos[at]);
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
  return misses;
}

}  // namespace mbcr
