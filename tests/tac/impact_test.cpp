#include "tac/impact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "ir/interp.hpp"
#include "suite/malardalen.hpp"
#include "util/rng.hpp"

namespace mbcr::tac {
namespace {

/// The straightforward path: replay the whole sorted projection.
double reference_extra_misses(const ReuseProfile& profile,
                              std::span<const std::size_t> line_indices,
                              std::uint32_t ways, std::uint64_t seed,
                              std::uint32_t trials) {
  const std::vector<Addr> projected = project_group(profile, line_indices);
  return std::max(0.0, expected_misses_single_set(projected, ways, seed,
                                                  trials) -
                           static_cast<double>(line_indices.size()));
}

/// The sequence `lines` repeated `times` times.
std::vector<Addr> repeat(const std::vector<Addr>& lines, int times) {
  std::vector<Addr> out;
  for (int r = 0; r < times; ++r) {
    out.insert(out.end(), lines.begin(), lines.end());
  }
  return out;
}

/// `count` distinct line indices drawn from [0, n) (n >= count).
std::vector<std::size_t> random_group(std::size_t n, std::size_t count,
                                      Xoshiro256& rng) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + rng.uniform(static_cast<std::uint32_t>(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

TEST(ExpectedMisses, WithinCapacityIsNearColdOnly) {
  // 4 lines in 4 ways: cold misses plus a short random-eviction transient;
  // far below the thrashing regime.
  std::vector<Addr> seq;
  for (int r = 0; r < 100; ++r) {
    for (Addr l = 0; l < 4; ++l) seq.push_back(l);
  }
  const double m = expected_misses_single_set(seq, 4, 42);
  EXPECT_GE(m, 4.0);
  EXPECT_LT(m, 40.0);
}

TEST(ExpectedMisses, OverCapacityRoundRobinThrashes) {
  // 5 lines round-robin in a 4-way random-replacement set: every cycle of
  // 5 accesses has at least one absent line => >= ~1000 misses over 1000
  // cycles (the paper's Sec. 3.1.1 reasoning).
  std::vector<Addr> seq;
  for (int r = 0; r < 1000; ++r) {
    for (Addr l = 0; l < 5; ++l) seq.push_back(l);
  }
  const double m = expected_misses_single_set(seq, 4, 7);
  EXPECT_GT(m, 1000.0);
  EXPECT_LT(m, 5000.0);
}

TEST(ExpectedMisses, EmptyOrNoTrials) {
  EXPECT_DOUBLE_EQ(expected_misses_single_set({}, 4, 1), 0.0);
  std::vector<Addr> seq{1, 2};
  EXPECT_DOUBLE_EQ(expected_misses_single_set(seq, 4, 1, 0), 0.0);
}

TEST(ExpectedMisses, DeterministicInSeed) {
  std::vector<Addr> seq;
  for (int r = 0; r < 50; ++r) {
    for (Addr l = 0; l < 3; ++l) seq.push_back(l);
  }
  EXPECT_DOUBLE_EQ(expected_misses_single_set(seq, 2, 9),
                   expected_misses_single_set(seq, 2, 9));
}

TEST(ExpectedMisses, MoreWaysNeverWorse) {
  std::vector<Addr> seq;
  for (int r = 0; r < 200; ++r) {
    for (Addr l = 0; l < 6; ++l) seq.push_back(l);
  }
  const double w2 = expected_misses_single_set(seq, 2, 5, 16);
  const double w4 = expected_misses_single_set(seq, 4, 5, 16);
  const double w8 = expected_misses_single_set(seq, 8, 5, 16);
  EXPECT_GT(w2, w4);
  EXPECT_GT(w4, w8);
  EXPECT_LT(w8, 60.0);  // fits entirely after a short transient
}

TEST(GroupExtraMisses, BitEqualToTheFullProjectionOnEverySuiteKernel) {
  // Random groups of size W+1 and W+2 (fewer when a side has fewer
  // lines) and a group of single-access lines, on both sides of every
  // kernel. W = 80 takes the kernel's heap-allocated tags.
  Xoshiro256 rng(0x1a7c7);
  std::size_t groups = 0;
  std::size_t replayed = 0;
  for (const suite::SuiteEntry& entry : suite::all()) {
    const suite::SuiteBenchmark b = entry.make();
    const ir::ExecResult exec =
        ir::lower_and_execute(b.program, b.default_input);
    for (const bool instruction_side : {true, false}) {
      const ReuseProfile profile =
          profile_sequence(exec.trace.line_sequence(instruction_side));
      const std::size_t n = profile.lines.size();
      ASSERT_GT(n, 0u);
      std::vector<std::size_t> single_access;
      for (std::size_t i = 0; i < n; ++i) {
        if (profile.lines[i].count == 1) single_access.push_back(i);
      }
      for (const std::uint32_t ways : {2u, 4u, 8u, 80u}) {
        std::vector<std::vector<std::size_t>> cases;
        for (const std::size_t k : {ways + 1, ways + 2}) {
          for (int rep = 0; rep < 4; ++rep) {
            cases.push_back(random_group(n, std::min<std::size_t>(k, n), rng));
          }
        }
        if (!single_access.empty()) {
          cases.push_back(single_access);
          cases.back().resize(std::min<std::size_t>(ways + 1,
                                                    single_access.size()));
        }
        for (const std::vector<std::size_t>& group : cases) {
          const std::uint64_t seed = mix64(group.size(), 0x7ac0ffee);
          const double fast = group_extra_misses(profile, group, ways, seed);
          const double ref =
              reference_extra_misses(profile, group, ways, seed, 8);
          ASSERT_EQ(fast, ref)
              << entry.name << (instruction_side ? " IL1" : " DL1")
              << " ways=" << ways << " k=" << group.size();
          ++groups;
          replayed += fast > 0.0;
        }
      }
    }
  }
  EXPECT_GT(groups, 11u * 2u * 4u * 8u);
  EXPECT_GT(replayed, 0u);  // not every group takes the no-replay exit
}

TEST(GroupExtraMisses, SingleRunPerLineHasNoImpact) {
  // Each line accessed in one burst: the intervals are disjoint, so every
  // trial misses exactly once per line.
  std::vector<Addr> seq;
  for (Addr l = 1; l <= 6; ++l) {
    for (int r = 0; r < 50; ++r) seq.push_back(l);
  }
  const ReuseProfile profile = profile_sequence(seq);
  const std::vector<std::size_t> group{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(group_extra_misses(profile, group, 2, 9), 0.0);
  EXPECT_EQ(reference_extra_misses(profile, group, 2, 9, 8), 0.0);
}

TEST(GroupExtraMisses, MatchesReferenceForEveryTrialCount) {
  std::vector<Addr> seq;
  for (int r = 0; r < 300; ++r) {
    for (Addr l = 1; l <= 5; ++l) {
      seq.push_back(l);
      if (r % 3 == 0) seq.push_back(l);  // a foldable repeat
    }
  }
  const ReuseProfile profile = profile_sequence(seq);
  const std::vector<std::size_t> group{4, 0, 2, 1, 3};  // any order
  const std::vector<std::size_t> sorted{0, 1, 2, 3, 4};
  for (const std::uint32_t trials : {0u, 1u, 3u, 8u, 17u}) {
    const double fast = group_extra_misses(profile, group, 4, 11, trials);
    EXPECT_EQ(fast, reference_extra_misses(profile, group, 4, 11, trials))
        << trials;
    EXPECT_EQ(fast, group_extra_misses(profile, sorted, 4, 11, trials))
        << trials;
    // No trials: no mean to take, and no division by zero.
    EXPECT_EQ(fast > 0.0, trials > 0) << trials;
  }
}

TEST(GroupExtraMisses, MissIntoAnEmptyWayWhileAnEvictedLineIsAbsent) {
  // Three lines cycle through a 4-way set before two more join. Replayed
  // with the kernel's draws, some trial evicts a line and then fills a
  // still-empty way on a later miss while the evicted line is out of the
  // set: more than k - W lines are absent at once.
  std::vector<Addr> seq = repeat({1, 2, 3}, 10);
  const std::vector<Addr> tail = repeat({1, 2, 3, 4, 5}, 20);
  seq.insert(seq.end(), tail.begin(), tail.end());
  const ReuseProfile profile = profile_sequence(seq);
  const std::vector<std::size_t> group{0, 1, 2, 3, 4};
  constexpr std::uint32_t kWays = 4;
  constexpr std::uint64_t kSeed = 5;
  constexpr std::uint32_t kTrials = 8;

  // The projection is the whole sequence; replay it with explicit tags.
  constexpr Addr kNone = ~Addr{0};
  int seen = 0;
  for (std::uint32_t t = 0; t < kTrials; ++t) {
    std::vector<Addr> tags(kWays, kNone);
    std::vector<bool> loaded(6, false);
    Xoshiro256 rng(mix64(t + 1, kSeed));
    for (const Addr line : seq) {
      if (std::find(tags.begin(), tags.end(), line) != tags.end()) continue;
      const std::uint32_t way = rng.uniform(kWays);
      bool evicted_out = false;
      for (Addr l = 1; l <= 5; ++l) {
        evicted_out = evicted_out ||
                      (l != line && loaded[l] &&
                       std::find(tags.begin(), tags.end(), l) == tags.end());
      }
      seen += tags[way] == kNone && evicted_out;
      tags[way] = line;
      loaded[line] = true;
    }
  }
  ASSERT_GT(seen, 0);
  const double fast =
      group_extra_misses(profile, group, kWays, kSeed, kTrials);
  EXPECT_EQ(fast,
            reference_extra_misses(profile, group, kWays, kSeed, kTrials));
  EXPECT_GT(fast, 0.0);
}

TEST(GroupExtraMisses, TouchingIntervalsExitNestedOnesReplay) {
  // Touching: A's last access is right before B's first, then C follows.
  const ReuseProfile touching =
      profile_sequence(std::vector<Addr>{1, 1, 1, 2, 2, 2, 3, 3});
  // Nested: B and C's accesses lie between A's first and last.
  const ReuseProfile nested =
      profile_sequence(std::vector<Addr>{1, 2, 3, 2, 3, 2, 3, 1});
  const std::vector<std::size_t> group{0, 1, 2};
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    EXPECT_EQ(group_extra_misses(touching, group, 2, seed), 0.0);
    EXPECT_EQ(reference_extra_misses(touching, group, 2, seed, 8), 0.0);
    EXPECT_EQ(group_extra_misses(nested, group, 2, seed),
              reference_extra_misses(nested, group, 2, seed, 8))
        << seed;
  }
  // With one way, every access of the nested sequence misses.
  EXPECT_EQ(group_extra_misses(nested, group, 1, 1), 5.0);
  EXPECT_EQ(reference_extra_misses(nested, group, 1, 1, 8), 5.0);
  // Only the last two intervals overlap: every pair must be tested.
  const ReuseProfile late =
      profile_sequence(std::vector<Addr>{1, 1, 2, 2, 3, 4, 3, 4});
  const std::vector<std::size_t> four{0, 1, 2, 3};
  EXPECT_EQ(group_extra_misses(late, four, 1, 1), 2.0);
  EXPECT_EQ(reference_extra_misses(late, four, 1, 1, 8), 2.0);
}

TEST(GroupExtraMisses, GroupsPastSixteenLines) {
  // A 20-line loop: no fixed-size array may bound k.
  std::vector<Addr> loop;
  for (Addr l = 1; l <= 20; ++l) loop.push_back(l);
  const ReuseProfile profile = profile_sequence(repeat(loop, 30));
  std::vector<std::size_t> group(20);
  std::iota(group.begin(), group.end(), std::size_t{0});
  for (const std::uint32_t ways : {4u, 16u, 19u, 32u}) {
    for (const std::size_t k : {17u, 20u}) {
      const std::span<const std::size_t> g(group.data(), k);
      EXPECT_EQ(group_extra_misses(profile, g, ways, 8, 5),
                reference_extra_misses(profile, g, ways, 8, 5))
          << ways << " " << k;
    }
  }
}

}  // namespace
}  // namespace mbcr::tac
