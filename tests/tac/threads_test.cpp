// Thread invariance of TAC: the impact estimation runs on the campaign
// pool, and its result must be the same with the calling thread alone
// (threads = 1) as with the whole pool (threads = 0), field for field
// and in order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ir/interp.hpp"
#include "pub/pub_transform.hpp"
#include "suite/malardalen.hpp"
#include "tac/runs.hpp"

namespace mbcr::tac {
namespace {

MemTrace pubbed_trace(const std::string& kernel) {
  const suite::SuiteBenchmark b = suite::make_benchmark(kernel);
  return ir::lower_and_execute(pub::apply_pub(b.program), b.default_input)
      .trace;
}

CacheConfig l1_32x4(Placement placement) {
  CacheConfig c{32, 4, 32};
  c.placement = placement;
  return c;
}

void expect_same_groups(const std::vector<ConflictGroup>& serial,
                        const std::vector<ConflictGroup>& pooled) {
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const ConflictGroup& a = serial[i];
    const ConflictGroup& b = pooled[i];
    ASSERT_EQ(a.group_size, b.group_size) << i;
    ASSERT_EQ(a.combination_count, b.combination_count) << i;
    ASSERT_EQ(a.extra_misses, b.extra_misses) << i;
    ASSERT_EQ(a.representative_lines, b.representative_lines) << i;
    ASSERT_EQ(a.co_mappable, b.co_mappable) << i;
  }
}

void expect_same_side(const TacSequenceResult& serial,
                      const TacSequenceResult& pooled) {
  EXPECT_EQ(serial.groups_considered, pooled.groups_considered);
  EXPECT_EQ(serial.required_runs, pooled.required_runs);
  EXPECT_EQ(serial.baseline_cycles, pooled.baseline_cycles);
  ASSERT_EQ(serial.events.size(), pooled.events.size());
  for (std::size_t i = 0; i < serial.events.size(); ++i) {
    const TacEvent& a = serial.events[i];
    const TacEvent& b = pooled.events[i];
    EXPECT_EQ(a.extra_misses, b.extra_misses) << i;
    EXPECT_EQ(a.probability, b.probability) << i;
    EXPECT_EQ(a.combination_count, b.combination_count) << i;
    EXPECT_EQ(a.group_size, b.group_size) << i;
    EXPECT_EQ(a.required_runs, b.required_runs) << i;
    EXPECT_EQ(a.example_lines, b.example_lines) << i;
  }
}

void expect_same_trace(const TacTraceResult& serial,
                       const TacTraceResult& pooled) {
  expect_same_side(serial.il1, pooled.il1);
  expect_same_side(serial.dl1, pooled.dl1);
  expect_same_side(serial.l2, pooled.l2);
  EXPECT_EQ(serial.required_runs, pooled.required_runs);
}

TEST(TacThreads, AnalyzeTraceIsThreadInvariantOnL1Geometries) {
  for (const char* kernel : {"edn", "ns"}) {
    const MemTrace trace = pubbed_trace(kernel);
    for (const Placement placement : {Placement::kHash, Placement::kModulo}) {
      SCOPED_TRACE(std::string(kernel) + (placement == Placement::kHash
                                              ? " hash"
                                              : " modulo"));
      const CacheConfig l1 = l1_32x4(placement);
      const TacTraceResult serial =
          analyze_trace(trace, l1, l1, 1e5, 100.0, {}, {}, 1);
      const TacTraceResult pooled =
          analyze_trace(trace, l1, l1, 1e5, 100.0, {}, {}, 0);
      expect_same_trace(serial, pooled);
    }
  }
}

TEST(TacThreads, AnalyzeTraceIsThreadInvariantWithARandomL2) {
  const MemTrace trace = pubbed_trace("crc");
  HierarchyConfig l2;
  l2.enabled = true;
  l2.policy = L2Policy::kRandom;
  l2.l2 = CacheConfig{64, 4, 32};
  l2.latency = 10;
  const CacheConfig l1 = CacheConfig::paper_l1();
  const TacTraceResult serial =
      analyze_trace(trace, l1, l1, 1e5, 100.0, {}, l2, 1);
  const TacTraceResult pooled =
      analyze_trace(trace, l1, l1, 1e5, 100.0, {}, l2, 0);
  EXPECT_GT(serial.l2.groups_considered, 0u);
  expect_same_trace(serial, pooled);
}

TEST(TacThreads, EnumerationIsThreadInvariantAcrossImpactBatches) {
  // edn's data side at 32x4 keeps ~177k groups: impacts are estimated
  // 4096 candidates at a time, so the groups span dozens of batches.
  // Modulo placement also exercises co_mappable.
  const ReuseProfile profile =
      profile_sequence(pubbed_trace("edn").line_sequence(false));
  const CacheConfig cache = l1_32x4(Placement::kModulo);
  const std::vector<ConflictGroup> serial =
      enumerate_conflict_groups(profile, cache, {}, 1);
  const std::vector<ConflictGroup> pooled =
      enumerate_conflict_groups(profile, cache, {}, 0);
  ASSERT_GT(serial.size(), 10u * 4096u);
  bool some_not_co_mappable = false;
  for (const ConflictGroup& g : serial) some_not_co_mappable |= !g.co_mappable;
  EXPECT_TRUE(some_not_co_mappable);
  expect_same_groups(serial, pooled);
}

}  // namespace
}  // namespace mbcr::tac
