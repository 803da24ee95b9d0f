#include "cache/single_set.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mbcr {
namespace {

TEST(SingleSetCache, WithinCapacityStabilizesToAllHits) {
  // Pure random victim selection: transients may evict resident lines, but
  // a within-capacity working set reaches the absorbing all-resident state
  // and then never misses again.
  SingleSetCache set(4, 1);
  for (int warmup = 0; warmup < 64; ++warmup) {
    set.access_line(1);
    set.access_line(2);
  }
  const std::uint64_t misses_after_warmup = set.misses();
  for (int r = 0; r < 20; ++r) {
    EXPECT_TRUE(set.access_line(1));
    EXPECT_TRUE(set.access_line(2));
  }
  EXPECT_EQ(set.misses(), misses_after_warmup);
}

TEST(SingleSetCache, FitsExactlyWaysEventually) {
  SingleSetCache set(3, 7);
  for (int warmup = 0; warmup < 128; ++warmup) {
    for (Addr l = 0; l < 3; ++l) set.access_line(l);
  }
  for (int r = 0; r < 20; ++r) {
    for (Addr l = 0; l < 3; ++l) EXPECT_TRUE(set.access_line(l));
  }
}

TEST(SingleSetCache, FlushClears) {
  SingleSetCache set(2, 3);
  set.access_line(5);
  set.flush();
  EXPECT_FALSE(set.access_line(5));
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

TEST(ExpectedMisses, ReplaysExactlyLikeSingleSetCache) {
  // The replay against the class it mirrors, at 1 to 80 ways.
  Xoshiro256 rng(3);
  for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u, 17u, 80u}) {
    std::vector<Addr> seq;
    for (int i = 0; i < 2000; ++i) seq.push_back(rng.uniform(ways + 3));
    const std::uint32_t trials = 5;
    double total = 0.0;
    for (std::uint32_t t = 0; t < trials; ++t) {
      SingleSetCache set(ways, mix64(t + 1, 77));
      for (const Addr line : seq) set.access_line(line);
      total += static_cast<double>(set.misses());
    }
    EXPECT_EQ(expected_misses_single_set(seq, ways, 77, trials),
              total / trials)
        << ways;
  }
}

}  // namespace
}  // namespace mbcr
