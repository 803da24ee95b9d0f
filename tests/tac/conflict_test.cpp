#include "tac/conflict.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <vector>

#include "util/signal.hpp"

namespace mbcr::tac {
namespace {

std::vector<Addr> round_robin(int n_lines, int reps) {
  std::vector<Addr> seq;
  for (int r = 0; r < reps; ++r) {
    for (int l = 0; l < n_lines; ++l) seq.push_back(static_cast<Addr>(l + 1));
  }
  return seq;
}

TEST(Binomial, KnownValues) {
  EXPECT_DOUBLE_EQ(binomial(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(binomial(6, 5), 6.0);
  EXPECT_DOUBLE_EQ(binomial(10, 3), 120.0);
  EXPECT_DOUBLE_EQ(binomial(3, 5), 0.0);
  EXPECT_DOUBLE_EQ(binomial(7, 0), 1.0);
}

TEST(ConflictGroups, PaperExample1FiveLines) {
  // {ABCDE}^1000, S=8 W=4: a single conflict group of k=5 with exactly one
  // combination (C(5,5) = 1), and heavy impact.
  const auto seq = round_robin(5, 1000);
  const ReuseProfile profile = profile_sequence(seq);
  const auto groups = enumerate_conflict_groups(
      profile, CacheConfig::example_s8w4());
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].group_size, 5u);
  EXPECT_DOUBLE_EQ(groups[0].combination_count, 1.0);
  EXPECT_GT(groups[0].extra_misses, 900.0);
}

TEST(ConflictGroups, PaperExample2SixLines) {
  // {ABCDEF}^1000, S=8 W=4: 6 interchangeable 5-groups. The paper's
  // exposition counts exactly the minimal (W+1)-groups, so restrict the
  // enumeration to k = W+1 here.
  const auto seq = round_robin(6, 1000);
  const ReuseProfile profile = profile_sequence(seq);
  ConflictConfig cfg;
  cfg.extra_group_sizes = {0};
  const auto groups = enumerate_conflict_groups(
      profile, CacheConfig::example_s8w4(), cfg);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].group_size, 5u);
  EXPECT_DOUBLE_EQ(groups[0].combination_count, 6.0);
}

TEST(ConflictGroups, WithinCapacityNoGroups) {
  // 3 distinct lines cannot overflow a 4-way set: no conflict groups
  // (paper Sec. 3.1.1, the original sequences).
  const auto seq = round_robin(3, 1000);
  const ReuseProfile profile = profile_sequence(seq);
  const auto groups = enumerate_conflict_groups(
      profile, CacheConfig::example_s8w4());
  EXPECT_TRUE(groups.empty());
}

TEST(ConflictGroups, SingleAccessLinesHaveNoImpact) {
  // Lines touched once each: co-mapping them costs nothing beyond cold
  // misses, so impact filtering drops every group.
  std::vector<Addr> seq;
  for (Addr l = 1; l <= 10; ++l) seq.push_back(l);
  const ReuseProfile profile = profile_sequence(seq);
  const auto groups =
      enumerate_conflict_groups(profile, CacheConfig{8, 2, 32});
  for (const auto& g : groups) {
    EXPECT_LT(g.extra_misses, 1.0);
  }
}

TEST(ConflictGroups, SortedByImpact) {
  // Mix a hot round-robin trio with a lukewarm one; W=2 so k=3.
  std::vector<Addr> seq;
  for (int r = 0; r < 2000; ++r) {
    seq.push_back(1);
    seq.push_back(2);
    seq.push_back(3);
    if (r % 10 == 0) {
      seq.push_back(11);
      seq.push_back(12);
      seq.push_back(13);
    }
  }
  const ReuseProfile profile = profile_sequence(seq);
  const auto groups =
      enumerate_conflict_groups(profile, CacheConfig{8, 2, 32});
  ASSERT_GE(groups.size(), 2u);
  for (std::size_t i = 1; i < groups.size(); ++i) {
    EXPECT_GE(groups[i - 1].extra_misses, groups[i].extra_misses);
  }
}

TEST(ConflictGroups, ExhaustiveMatchesClusteredOnSymmetricTrace) {
  const auto seq = round_robin(6, 500);
  const ReuseProfile profile = profile_sequence(seq);
  const CacheConfig cache = CacheConfig::example_s8w4();
  ConflictConfig cfg;
  cfg.extra_group_sizes = {0};  // oracle below enumerates k=5 only
  const auto clustered = enumerate_conflict_groups(profile, cache, cfg);
  const auto exhaustive =
      enumerate_conflict_groups_exhaustive(profile, cache, 5);
  // Exhaustive finds C(6,5)=6 concrete groups; clustered folds them into
  // one class with count 6. Total combination mass must agree.
  double clustered_mass = 0;
  for (const auto& g : clustered) clustered_mass += g.combination_count;
  EXPECT_DOUBLE_EQ(clustered_mass, static_cast<double>(exhaustive.size()));
  // And impacts agree within sampling noise.
  ASSERT_FALSE(clustered.empty());
  ASSERT_FALSE(exhaustive.empty());
  EXPECT_NEAR(clustered[0].extra_misses, exhaustive[0].extra_misses,
              0.15 * clustered[0].extra_misses);
}

TEST(ConflictGroups, RespectsMaxClusters) {
  // Many distinct phase groups; limiting clusters bounds the search.
  std::vector<Addr> seq;
  for (int phase = 0; phase < 30; ++phase) {
    for (int r = 0; r < 30; ++r) {
      for (int l = 0; l < 3; ++l) {
        seq.push_back(static_cast<Addr>(phase * 10 + l));
      }
    }
  }
  const ReuseProfile profile = profile_sequence(seq, 64);
  ConflictConfig cfg;
  cfg.max_clusters = 4;
  const auto few = enumerate_conflict_groups(profile, CacheConfig{8, 2, 32},
                                             cfg);
  cfg.max_clusters = 24;
  const auto many = enumerate_conflict_groups(profile, CacheConfig{8, 2, 32},
                                              cfg);
  EXPECT_LE(few.size(), many.size());
}

TEST(ConflictGroups, ExtraGroupSizes) {
  const auto seq = round_robin(8, 300);
  const ReuseProfile profile = profile_sequence(seq);
  ConflictConfig cfg;
  cfg.extra_group_sizes = {0, 1};  // k = W+1 and W+2
  const auto groups =
      enumerate_conflict_groups(profile, CacheConfig{8, 4, 32}, cfg);
  bool saw_k5 = false;
  bool saw_k6 = false;
  for (const auto& g : groups) {
    saw_k5 |= g.group_size == 5;
    saw_k6 |= g.group_size == 6;
  }
  EXPECT_TRUE(saw_k5);
  EXPECT_TRUE(saw_k6);
}

TEST(ConflictGroups, EnumerationStopsOnShutdownRequest) {
  const ReuseProfile profile = profile_sequence(round_robin(6, 100));
  const CacheConfig cache = CacheConfig::example_s8w4();
  util::install_shutdown_handlers();
  util::reset_shutdown();
  std::raise(SIGTERM);
  EXPECT_THROW(enumerate_conflict_groups(profile, cache),
               util::ShutdownRequested);
  EXPECT_THROW(enumerate_conflict_groups_exhaustive(profile, cache, 5),
               util::ShutdownRequested);
  util::reset_shutdown();
  EXPECT_FALSE(enumerate_conflict_groups(profile, cache).empty());
}

}  // namespace
}  // namespace mbcr::tac
