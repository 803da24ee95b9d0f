#include "util/gallop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mbcr {
namespace {

/// `next_after` the slow way: the first index past `from` whose position
/// is after `now`.
std::size_t linear_next_after(const std::vector<std::uint32_t>& p,
                              std::size_t from, std::uint32_t now) {
  std::size_t i = from + 1;
  while (i < p.size() && p[i] <= now) ++i;
  return i;
}

TEST(Gallop, CursorAtTheLastPositionFindsNothing) {
  const std::vector<std::uint32_t> p = {3, 7, 9};
  EXPECT_EQ(next_after(p, 2, 9), 3u);
  EXPECT_EQ(next_after(p, 2, 1000), 3u);
  const std::vector<std::uint32_t> one = {5};
  EXPECT_EQ(next_after(one, 0, 5), 1u);
}

TEST(Gallop, BlockOfEightEndingExactlyAtTheEnd) {
  // From index 0 the block covers indices 1..8 of nine: it ends at n.
  std::vector<std::uint32_t> p(9);
  for (std::uint32_t i = 0; i < p.size(); ++i) p[i] = 10 * i;
  EXPECT_EQ(next_after(p, 0, 80), 9u);  // every block entry at or before
  EXPECT_EQ(next_after(p, 0, 79), 8u);  // the block's last entry is after
  EXPECT_EQ(next_after(p, 0, 0), 1u);   // the block's first entry is after
  // One short of a block: the gallop alone reaches the end.
  p.pop_back();
  EXPECT_EQ(next_after(p, 0, 1000), 8u);
  EXPECT_EQ(next_after(p, 0, 65), 7u);
}

TEST(Gallop, GallopThatOvershootsTheEnd) {
  // Past the block the doublings run 1, 2, 4, 8, ...: with 20 positions
  // the step that would pass n is cut to the end before the binary search.
  std::vector<std::uint32_t> p(20);
  for (std::uint32_t i = 0; i < p.size(); ++i) p[i] = 2 * i;
  EXPECT_EQ(next_after(p, 0, 1000), 20u);
  EXPECT_EQ(next_after(p, 0, 38), 20u);
  EXPECT_EQ(next_after(p, 0, 37), 19u);
  EXPECT_EQ(next_after(p, 0, 36), 19u);
  EXPECT_EQ(next_after(p, 3, 29), 15u);
}

TEST(Gallop, MatchesALinearScanEverywhere) {
  std::vector<std::uint32_t> p;
  for (std::uint32_t i = 0; i < 70; ++i) p.push_back(3 * i + i % 2);
  for (std::size_t from = 0; from < p.size(); ++from) {
    for (std::uint32_t now = p[from]; now <= p.back() + 1; ++now) {
      ASSERT_EQ(next_after(p, from, now), linear_next_after(p, from, now))
          << "from " << from << " now " << now;
    }
  }
}

}  // namespace
}  // namespace mbcr
