#include "tac/impact.hpp"

#include <algorithm>
#include <limits>

#include "cache/single_set.hpp"

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
  // k-way merge of the lines' sorted positions that emits each run of
  // consecutive accesses to one line once. Every access after the first
  // of a run finds its line just used, so it hits and draws no
  // replacement randomness: dropping it changes neither the miss count
  // nor any later victim choice (CompactTrace's argument, inside one set).
  // Scratch is per thread: impacts are estimated on the campaign pool.
  thread_local std::vector<Addr> folded;
  thread_local std::vector<std::size_t> cursor;
  const std::size_t k = line_indices.size();
  folded.clear();
  cursor.assign(k, 0);
  constexpr std::uint32_t kDone = std::numeric_limits<std::uint32_t>::max();
  for (;;) {
    std::size_t first = k;
    std::uint32_t first_pos = kDone;
    std::uint32_t second_pos = kDone;
    for (std::size_t i = 0; i < k; ++i) {
      const std::vector<std::uint32_t>& pos =
          profile.lines[line_indices[i]].positions;
      if (cursor[i] == pos.size()) continue;
      const std::uint32_t p = pos[cursor[i]];
      if (p < first_pos) {
        second_pos = first_pos;
        first_pos = p;
        first = i;
      } else if (p < second_pos) {
        second_pos = p;
      }
    }
    if (first == k) break;
    const LineStats& ls = profile.lines[line_indices[first]];
    folded.push_back(ls.line);
    // The run lasts until another group line's next access.
    cursor[first] = static_cast<std::size_t>(
        std::lower_bound(ls.positions.begin() +
                             static_cast<std::ptrdiff_t>(cursor[first]) + 1,
                         ls.positions.end(), second_pos) -
        ls.positions.begin());
  }
  // One run per line: every trial misses exactly once per line, which is
  // the conflict-free baseline below.
  if (folded.size() == k) return 0.0;
  const double conflicted =
      expected_misses_single_set(folded, ways, seed, trials);
  // Conflict-free baseline: each line in its own (otherwise idle) set
  // suffers exactly its cold miss.
  const double baseline = static_cast<double>(k);
  return std::max(0.0, conflicted - baseline);
}

}  // namespace mbcr::tac
