#include "tac/impact.hpp"

#include <algorithm>

#include "cache/miss_walk.hpp"
#include "cache/random_cache.hpp"
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

double expected_misses_single_set(std::span<const Addr> projected,
                                  std::uint32_t ways, std::uint64_t seed,
                                  std::uint32_t trials) {
  if (projected.empty() || trials == 0) return 0.0;
  double total = 0.0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    RandomCache set(CacheConfig{1, ways}, 0, mix64(t + 1, seed));
    for (const Addr line : projected) set.access_line(line);
    total += static_cast<double>(set.misses());
  }
  return total / static_cast<double>(trials);
}

double group_extra_misses(const ReuseProfile& profile,
                          std::span<const std::size_t> line_indices,
                          std::uint32_t ways, std::uint64_t seed,
                          std::uint32_t trials) {
  const std::size_t k = line_indices.size();
  if (k == 0 || trials == 0) return 0.0;
  // Scratch is per thread: impacts are estimated on the campaign pool.
  // The group's positions in first-use order, as `walk_misses` takes them.
  thread_local std::vector<std::span<const std::uint32_t>> lines;
  lines.clear();
  for (const std::size_t idx : line_indices) {
    lines.emplace_back(profile.lines[idx].positions);
  }
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    return a.front() < b.front();
  });
  // One run per line (no line's accesses come between another's first and
  // last): every trial misses exactly once per line, which is the
  // conflict-free baseline below.
  bool disjoint = true;
  for (std::size_t i = 1; i < k && disjoint; ++i) {
    disjoint = lines[i - 1].back() < lines[i].front();
  }
  if (disjoint) return 0.0;

  thread_local MissWalkScratch scratch;
  const std::span<const std::uint32_t>* const spans = lines.data();
  const auto positions = [spans](std::uint32_t i) { return spans[i]; };
  const auto one_set = [](std::uint32_t) { return 0u; };
  const auto count_only = [](std::uint32_t, std::uint32_t) {};
  double total = 0.0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    Xoshiro256 rng(mix64(t + 1, seed));
    total += static_cast<double>(
        walk_misses(static_cast<std::uint32_t>(k), positions, one_set, 1,
                    ways, rng, scratch, count_only));
  }
  const double conflicted = total / static_cast<double>(trials);
  // Conflict-free baseline: each line in its own (otherwise idle) set
  // suffers exactly its cold miss.
  const double baseline = static_cast<double>(k);
  return std::max(0.0, conflicted - baseline);
}

}  // namespace mbcr::tac
