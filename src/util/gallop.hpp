// The one search that both miss-to-miss replays share (`tac::
// group_extra_misses` on one set, `Machine::run_once` on every set of an
// L1 side): when a line is evicted, where is its next access?
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

namespace mbcr {

/// First index past `from` whose element of the ascending `positions` is
/// after `now`, given that `positions[from]` is not; `positions.size()`
/// if none is. Most victims were last loaded a few accesses back, so one
/// branch-free block of eight goes first; longer gaps gallop, then
/// binary-search the last doubling.
inline std::size_t next_after(std::span<const std::uint32_t> positions,
                              std::size_t from, std::uint32_t now) {
  const std::uint32_t* p = positions.data();
  const std::size_t n = positions.size();
  std::size_t lo = from + 1;  // p[lo - 1] <= now from here on
  constexpr std::size_t kBlock = 8;
  if (lo + kBlock <= n) {
    std::size_t at_or_before = 0;
    for (std::size_t i = 0; i < kBlock; ++i) at_or_before += p[lo + i] <= now;
    if (at_or_before < kBlock) return lo + at_or_before;
    lo += kBlock;
  }
  std::size_t step = 1;
  while (lo + step <= n && p[lo + step - 1] <= now) {
    lo += step;
    step *= 2;
  }
  return static_cast<std::size_t>(
      std::upper_bound(p + lo, p + std::min(lo + step, n), now) - p);
}

}  // namespace mbcr
