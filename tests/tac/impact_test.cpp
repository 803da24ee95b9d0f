#include "tac/impact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "cache/single_set.hpp"
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
  // Each line accessed in one burst: the folded projection is one entry
  // per line, so every trial misses exactly once per line.
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
  for (const std::uint32_t trials : {0u, 1u, 3u, 8u, 17u}) {
    EXPECT_EQ(group_extra_misses(profile, group, 4, 11, trials),
              reference_extra_misses(profile, group, 4, 11, trials))
        << trials;
  }
}

}  // namespace
}  // namespace mbcr::tac
