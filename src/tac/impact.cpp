#include "tac/impact.hpp"

#include <algorithm>
#include <limits>

#include "util/gallop.hpp"
#include "util/rng.hpp"

namespace mbcr::tac {

std::vector<Addr> project_group(const ReuseProfile& profile,
                                std::span<const std::size_t> line_indices) {
  // Merge the per-line position lists: (position, line) pairs sorted by
  // position give the projected subsequence.
  std::vector<std::pair<std::uint32_t, Addr>> merged;
  std::size_t total = 0;
  for (std::size_t idx : line_indices) total += profile.lines[idx].count;
  merged.reserve(total);
  for (std::size_t idx : line_indices) {
    const LineStats& ls = profile.lines[idx];
    for (std::uint32_t pos : ls.positions) merged.emplace_back(pos, ls.line);
  }
  std::sort(merged.begin(), merged.end());
  std::vector<Addr> out;
  out.reserve(merged.size());
  for (const auto& [pos, line] : merged) out.push_back(line);
  return out;
}

double group_extra_misses(const ReuseProfile& profile,
                          std::span<const std::size_t> line_indices,
                          std::uint32_t ways, std::uint64_t seed,
                          std::uint32_t trials) {
  const std::size_t k = line_indices.size();
  if (k == 0 || trials == 0) return 0.0;
  // Scratch is per thread: impacts are estimated on the campaign pool.
  thread_local std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
  spans.clear();
  for (const std::size_t idx : line_indices) {
    const std::vector<std::uint32_t>& pos = profile.lines[idx].positions;
    spans.emplace_back(pos.front(), pos.back());
  }
  // One run per line (no line's accesses come between another's first and
  // last): every trial misses exactly once per line, which is the
  // conflict-free baseline below.
  std::sort(spans.begin(), spans.end());
  bool disjoint = true;
  for (std::size_t i = 1; i < k && disjoint; ++i) {
    disjoint = spans[i - 1].second < spans[i].first;
  }
  if (disjoint) return 0.0;

  // Random replacement keeps no recency state: a hit changes nothing and
  // draws nothing. So the next miss is the earliest next access of a line
  // absent from the set, and a trial jumps from miss to miss. `absent`
  // holds `next access position << 32 | group index` for every absent
  // line that is accessed again, so its smallest key is the next miss. A
  // draw may land on a still-empty way, so more than k - W lines can be
  // absent.
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  const auto key = [](std::uint32_t position, std::size_t i) {
    return (std::uint64_t{position} << 32) | i;
  };
  thread_local std::vector<const std::vector<std::uint32_t>*> positions;
  thread_local std::vector<std::uint64_t> absent;
  // Per line: the index of its next access while absent, of the access
  // that loaded it while present.
  thread_local std::vector<std::size_t> cursor;
  thread_local std::vector<std::uint32_t> owner;  // group index per way
  positions.clear();
  for (const std::size_t idx : line_indices) {
    positions.push_back(&profile.lines[idx].positions);
  }
  double total = 0.0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    absent.clear();
    for (std::size_t i = 0; i < k; ++i) {
      absent.push_back(key(positions[i]->front(), i));
    }
    cursor.assign(k, 0);
    owner.assign(ways, kEmpty);
    Xoshiro256 rng(mix64(t + 1, seed));
    std::uint64_t misses = 0;
    while (!absent.empty()) {
      std::size_t slot = 0;
      for (std::size_t j = 1; j < absent.size(); ++j) {
        if (absent[j] < absent[slot]) slot = j;
      }
      const auto now = static_cast<std::uint32_t>(absent[slot] >> 32);
      const auto line = static_cast<std::uint32_t>(absent[slot]);
      ++misses;
      const std::uint32_t way = rng.uniform(ways);
      const std::uint32_t victim = owner[way];
      owner[way] = line;
      if (victim != kEmpty) {
        const std::vector<std::uint32_t>& pos = *positions[victim];
        cursor[victim] = next_after(pos, cursor[victim], now);
        if (cursor[victim] < pos.size()) {
          absent[slot] = key(pos[cursor[victim]], victim);
          continue;
        }
      }
      absent[slot] = absent.back();
      absent.pop_back();
    }
    total += static_cast<double>(misses);
  }
  const double conflicted = total / static_cast<double>(trials);
  // Conflict-free baseline: each line in its own (otherwise idle) set
  // suffers exactly its cold miss.
  const double baseline = static_cast<double>(k);
  return std::max(0.0, conflicted - baseline);
}

}  // namespace mbcr::tac
