#include "tac/runs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace mbcr::tac {
namespace {

std::vector<Addr> round_robin(int n_lines, int reps) {
  std::vector<Addr> seq;
  for (int r = 0; r < reps; ++r) {
    for (int l = 0; l < n_lines; ++l) seq.push_back(static_cast<Addr>(l + 1));
  }
  return seq;
}

TEST(RunsForProbability, EdgeCases) {
  EXPECT_EQ(runs_for_probability(0.0, 1e-9), 0u);
  EXPECT_EQ(runs_for_probability(-1.0, 1e-9), 0u);
  EXPECT_EQ(runs_for_probability(1.0, 1e-9), 1u);
  EXPECT_EQ(runs_for_probability(0.5, 0.0), 0u);
}

TEST(RunsForProbability, PaperSec311WorkedExample) {
  // p = (1/8)^4 = 0.000244..., target 1e-9 => R > ~84873 ("R > 84875" in
  // the paper's rounding).
  const double p = std::pow(1.0 / 8.0, 4);
  const std::size_t r = runs_for_probability(p, 1e-9);
  EXPECT_GE(r, 84000u);
  EXPECT_LE(r, 85500u);
}

TEST(RunsForProbability, PaperSec312WorkedExample) {
  // p = (1/8)^4 * 6 = 0.00146... => R > 14138.
  const double p = std::pow(1.0 / 8.0, 4) * 6.0;
  const std::size_t r = runs_for_probability(p, 1e-9);
  EXPECT_GE(r, 14000u);
  EXPECT_LE(r, 14250u);
}

TEST(RunsForProbability, MonotoneInProbabilityAndTarget) {
  EXPECT_GT(runs_for_probability(1e-4, 1e-9),
            runs_for_probability(1e-3, 1e-9));
  EXPECT_GT(runs_for_probability(1e-3, 1e-12),
            runs_for_probability(1e-3, 1e-9));
}

TEST(AnalyzeSequence, PaperExample1EndToEnd) {
  // {ABCDE}^1000, S=8 W=4: TAC must demand ~84.9k runs.
  const auto seq = round_robin(5, 1000);
  TacConfig cfg;
  const TacSequenceResult res = analyze_sequence(
      seq, CacheConfig::example_s8w4(), /*baseline_cycles=*/100000.0,
      /*miss_penalty=*/100.0, cfg);
  ASSERT_FALSE(res.events.empty());
  EXPECT_GE(res.required_runs, 84000u);
  EXPECT_LE(res.required_runs, 85500u);
}

TEST(AnalyzeSequence, PaperExample2EndToEnd) {
  // {ABCDEF}^1000: 6 combos -> ~14.1k runs, LOWER than example 1 even
  // though the sequence has more addresses (the paper's key observation
  // that pubbing can reduce the required runs). The paper's arithmetic
  // counts only the minimal 5-groups, so configure TAC accordingly.
  const auto seq = round_robin(6, 1000);
  TacConfig cfg;
  cfg.conflict.extra_group_sizes = {0};
  const TacSequenceResult res = analyze_sequence(
      seq, CacheConfig::example_s8w4(), 100000.0, 100.0, cfg);
  ASSERT_FALSE(res.events.empty());
  EXPECT_GE(res.required_runs, 14000u);
  EXPECT_LE(res.required_runs, 14250u);
}

TEST(AnalyzeSequence, LargerGroupsAddRarerWorseEvents) {
  // With the default configuration the same sequence also exposes the
  // 6-in-one-set layout: strictly worse impact, probability (1/8)^5, so
  // the required runs grow beyond the paper's 5-group-only figure.
  const auto seq = round_robin(6, 1000);
  const TacSequenceResult res = analyze_sequence(
      seq, CacheConfig::example_s8w4(), 100000.0, 100.0);
  EXPECT_GT(res.required_runs, 100000u);
}

TEST(AnalyzeSequence, NoRelationBetweenOrigAndPubbedRuns) {
  // Sec. 3.1 in full: orig {ABCA} needs no extra runs, its pub {ABCDEA}
  // needs ~85k; orig {ABCDEA} needs ~85k, its pub {ABCDEFA} needs ~14k.
  const CacheConfig cache = CacheConfig::example_s8w4();
  TacConfig cfg;
  cfg.conflict.extra_group_sizes = {0};  // the paper's 5-group arithmetic
  const auto r3 =
      analyze_sequence(round_robin(3, 1000), cache, 1e5, 100.0, cfg);
  const auto r5 =
      analyze_sequence(round_robin(5, 1000), cache, 1e5, 100.0, cfg);
  const auto r6 =
      analyze_sequence(round_robin(6, 1000), cache, 1e5, 100.0, cfg);
  EXPECT_LT(r3.required_runs, 10u);       // fits in the ways: no events
  EXPECT_GT(r5.required_runs, r3.required_runs);  // R(orig) < R(pub)
  EXPECT_LT(r6.required_runs, r5.required_runs);  // R(orig) > R(pub)
}

TEST(AnalyzeSequence, EmptySequenceIsTrivial) {
  const TacSequenceResult res =
      analyze_sequence({}, CacheConfig::paper_l1(), 1000.0, 100.0);
  EXPECT_EQ(res.required_runs, 1u);
  EXPECT_TRUE(res.events.empty());
}

TEST(AnalyzeSequence, ImpactThresholdFiltersSmallEvents) {
  const auto seq = round_robin(5, 1000);
  TacConfig strict;
  strict.impact_rel_threshold = 10.0;  // require 10x the baseline: nothing
  const TacSequenceResult res = analyze_sequence(
      seq, CacheConfig::example_s8w4(), 100000.0, 100.0, strict);
  EXPECT_TRUE(res.events.empty());
  EXPECT_EQ(res.required_runs, 1u);
}

TEST(AnalyzeSequence, IgnoreProbFiltersRareEvents) {
  const auto seq = round_robin(5, 1000);
  TacConfig cfg;
  cfg.ignore_event_prob = 1e-3;  // (1/8)^4 ~ 2.4e-4 < 1e-3: ignored
  const TacSequenceResult res = analyze_sequence(
      seq, CacheConfig::example_s8w4(), 100000.0, 100.0, cfg);
  EXPECT_EQ(res.required_runs, 1u);
}

TEST(AnalyzeSequence, RunsCapApplies)  {
  const auto seq = round_robin(5, 1000);
  TacConfig cfg;
  cfg.max_runs_cap = 5000;
  const TacSequenceResult res = analyze_sequence(
      seq, CacheConfig::example_s8w4(), 100000.0, 100.0, cfg);
  EXPECT_LE(res.required_runs, 5000u);
}

TEST(AnalyzeTrace, TakesMaxOfBothSides) {
  // Data side has a 5-line conflict; instruction side is trivial.
  MemTrace trace;
  for (int r = 0; r < 1000; ++r) {
    trace.emit(0x1000, AccessKind::kIFetch);
    for (Addr l = 0; l < 5; ++l) {
      trace.emit(0x8000 + l * 32, AccessKind::kLoad);
    }
  }
  const TacTraceResult res =
      analyze_trace(trace, CacheConfig::example_s8w4(),
                    CacheConfig::example_s8w4(), 1e5, 100.0);
  EXPECT_LE(res.il1.required_runs, 10u);
  EXPECT_GE(res.dl1.required_runs, 84000u);
  EXPECT_EQ(res.required_runs, res.dl1.required_runs);
}

TEST(ModuloCoMappable, SameBlockLinesNeverCoMap) {
  // Lines 1..3 share block 0 of an 8-set cache: random-modulo keeps their
  // offsets distinct, so the group can never land in one set.
  const std::vector<Addr> same_block{1, 2, 3};
  EXPECT_FALSE(modulo_group_co_mappable(same_block, 8));
  const std::vector<Addr> distinct_blocks{1, 9, 17};
  EXPECT_TRUE(modulo_group_co_mappable(distinct_blocks, 8));
  const std::vector<Addr> mixed{1, 9, 10};  // 9 and 10 share block 1
  EXPECT_FALSE(modulo_group_co_mappable(mixed, 8));
}

TEST(AnalyzeSequence, ModuloPlacementDropsSameBlockEvents) {
  // round_robin's 5 lines (1..5) all live in block 0 of an 8-set cache:
  // under hash placement they are the paper's ~85k-run event, under
  // random-modulo they can never conflict at all.
  const auto seq = round_robin(5, 1000);
  CacheConfig hash = CacheConfig::example_s8w4();
  const TacSequenceResult with_hash =
      analyze_sequence(seq, hash, 1e5, 100.0);
  EXPECT_GE(with_hash.required_runs, 84000u);

  CacheConfig modulo = hash;
  modulo.placement = Placement::kModulo;
  const TacSequenceResult with_modulo =
      analyze_sequence(seq, modulo, 1e5, 100.0);
  EXPECT_TRUE(with_modulo.events.empty());
  EXPECT_EQ(with_modulo.required_runs, 1u);

  // Spread the same working set across distinct blocks and the event is
  // back: block-distinct groups co-map with the usual (1/S)^(k-1).
  std::vector<Addr> spread;
  for (int r = 0; r < 1000; ++r) {
    for (Addr l = 0; l < 5; ++l) spread.push_back(1 + l * 8);
  }
  const TacSequenceResult spread_modulo =
      analyze_sequence(spread, modulo, 1e5, 100.0);
  EXPECT_GE(spread_modulo.required_runs, 84000u);
}

TEST(AnalyzeSequence, ModuloKeepsClassesWithBlockDistinctCombinations) {
  // Cluster {1,2,9,17,25,33}: a 5-group representative picks {1,2,...}
  // (1 and 2 share block 0 and can never co-map), but combinations like
  // {1,9,17,25,33} are block-distinct and genuinely co-map — the class
  // must survive the modulo filter with its full combination count.
  std::vector<Addr> seq;
  const Addr lines[] = {1, 2, 9, 17, 25, 33};
  for (int r = 0; r < 1000; ++r) {
    for (const Addr l : lines) seq.push_back(l);
  }
  CacheConfig modulo = CacheConfig::example_s8w4();
  modulo.placement = Placement::kModulo;
  TacConfig cfg;
  cfg.conflict.extra_group_sizes = {0};
  const TacSequenceResult res = analyze_sequence(seq, modulo, 1e5, 100.0, cfg);
  EXPECT_FALSE(res.events.empty());
  EXPECT_GT(res.required_runs, 1000u);
}

TEST(AnalyzeSequence, ModuloInfeasibleMinimalClassDoesNotMaskLargerGroups) {
  // Two phases: a very hot same-block 5-line cluster (infeasible under
  // modulo — probability exactly 0) and a cooler 6-line block-distinct
  // cluster. The infeasible class has the largest W+1 impact; it must
  // NOT serve as the larger-group pruning yardstick, or the feasible
  // 6-group event (impact above its own 5-subsets, far below the
  // infeasible class) would vanish and required runs be underestimated.
  std::vector<Addr> seq;
  for (int r = 0; r < 4000; ++r) {
    for (Addr l = 1; l <= 5; ++l) seq.push_back(l);  // block 0, very hot
  }
  for (int r = 0; r < 1000; ++r) {
    for (Addr b = 1; b <= 6; ++b) seq.push_back(b * 8);  // distinct blocks
  }
  CacheConfig modulo = CacheConfig::example_s8w4();
  modulo.placement = Placement::kModulo;
  const TacSequenceResult res = analyze_sequence(seq, modulo, 1e6, 100.0);
  bool has_k6 = false;
  for (const TacEvent& ev : res.events) has_k6 |= ev.group_size == 6;
  EXPECT_TRUE(has_k6);
}

TEST(AnalyzeTrace, RandomL2AddsAUnifiedEventSource) {
  // Data-side 5-line conflict; a same-geometry random L2 sees the unified
  // stream (6 lines) and contributes its own events.
  MemTrace trace;
  for (int r = 0; r < 1000; ++r) {
    trace.emit(0x1000, AccessKind::kIFetch);
    for (Addr l = 0; l < 5; ++l) {
      trace.emit(0x8000 + l * 32, AccessKind::kLoad);
    }
  }
  HierarchyConfig l2;
  l2.enabled = true;
  l2.l2 = CacheConfig::example_s8w4();
  l2.latency = 10;
  const TacTraceResult res =
      analyze_trace(trace, CacheConfig::example_s8w4(),
                    CacheConfig::example_s8w4(), 1e5, 100.0, {}, l2);
  EXPECT_FALSE(res.l2.events.empty());
  EXPECT_GE(res.l2.required_runs, 1u);
  EXPECT_EQ(res.required_runs,
            std::max({res.il1.required_runs, res.dl1.required_runs,
                      res.l2.required_runs}));
  // The single-level analysis leaves the L2 side untouched.
  const TacTraceResult single =
      analyze_trace(trace, CacheConfig::example_s8w4(),
                    CacheConfig::example_s8w4(), 1e5, 100.0);
  EXPECT_EQ(single.l2.required_runs, 0u);
  EXPECT_TRUE(single.l2.events.empty());
}

TEST(AnalyzeTrace, CoveringLruL2CapsTheL1MissPenalty) {
  // A deterministic LRU L2 that provably retains the working set caps an
  // extra L1 miss at the probe latency; an over-committed one cannot.
  MemTrace trace;
  for (int r = 0; r < 1000; ++r) {
    trace.emit(0x1000, AccessKind::kIFetch);
    for (Addr l = 0; l < 5; ++l) {
      trace.emit(0x8000 + l * 32, AccessKind::kLoad);
    }
  }
  HierarchyConfig covering;
  covering.enabled = true;
  covering.policy = L2Policy::kLru;  // 256x8: trivially covers 6 lines
  HierarchyConfig thrashing = covering;
  thrashing.l2 = CacheConfig{1, 2, 32};  // 6 lines through 2 ways
  const TacTraceResult covered =
      analyze_trace(trace, CacheConfig::example_s8w4(),
                    CacheConfig::example_s8w4(), 1e5, 100.0, {}, covering);
  const TacTraceResult evicting =
      analyze_trace(trace, CacheConfig::example_s8w4(),
                    CacheConfig::example_s8w4(), 1e5, 100.0, {}, thrashing);
  // Neither has L2 events (LRU adds no randomness)...
  EXPECT_TRUE(covered.l2.events.empty());
  EXPECT_TRUE(evicting.l2.events.empty());
  // ...but the covered hierarchy judges L1 events at 10 cycles/miss
  // instead of 110, so events need 11x the misses to stay relevant.
  EXPECT_LE(covered.required_runs, evicting.required_runs);
  for (const TacEvent& ev : covered.dl1.events) {
    EXPECT_GE(ev.extra_misses * 10.0, 0.01 * 1e5);
  }
}

TEST(AnalyzeTrace, HugeLruL2CoversInBoundedMemory) {
  // 2^31 modulo sets give every line a set of its own, so the LRU L2
  // covers the working set: the result is the single-level analysis with
  // an L1 miss costing only the probe latency. The coverage check counts
  // lines per set they land in; a per-set table would need 2^31 entries.
  MemTrace trace;
  for (int r = 0; r < 1000; ++r) {
    trace.emit(0x1000, AccessKind::kIFetch);
    for (Addr l = 0; l < 5; ++l) {
      trace.emit(0x8000 + l * 32, AccessKind::kLoad);
    }
  }
  HierarchyConfig huge;
  huge.enabled = true;
  huge.policy = L2Policy::kLru;
  huge.l2 = CacheConfig{1u << 31, 8, 32};
  const TacTraceResult two_level =
      analyze_trace(trace, CacheConfig::example_s8w4(),
                    CacheConfig::example_s8w4(), 1e4, 100.0, {}, huge);
  const TacTraceResult single =
      analyze_trace(trace, CacheConfig::example_s8w4(),
                    CacheConfig::example_s8w4(), 1e4,
                    static_cast<double>(huge.latency));
  ASSERT_FALSE(single.dl1.events.empty());
  EXPECT_EQ(two_level.required_runs, single.required_runs);
  EXPECT_TRUE(two_level.l2.events.empty());
  for (const auto& [two, one] : {std::pair{&two_level.il1, &single.il1},
                                 std::pair{&two_level.dl1, &single.dl1}}) {
    EXPECT_EQ(two->required_runs, one->required_runs);
    EXPECT_EQ(two->groups_considered, one->groups_considered);
    ASSERT_EQ(two->events.size(), one->events.size());
    for (std::size_t i = 0; i < one->events.size(); ++i) {
      EXPECT_EQ(two->events[i].extra_misses, one->events[i].extra_misses);
      EXPECT_EQ(two->events[i].probability, one->events[i].probability);
      EXPECT_EQ(two->events[i].required_runs, one->events[i].required_runs);
      EXPECT_EQ(two->events[i].example_lines, one->events[i].example_lines);
    }
  }
}

TEST(AnalyzeSequence, MorePessimisticTargetNeedsMoreRuns) {
  const auto seq = round_robin(5, 1000);
  TacConfig loose;
  loose.target_miss_prob = 1e-6;
  TacConfig tight;
  tight.target_miss_prob = 1e-12;
  const auto rl = analyze_sequence(seq, CacheConfig::example_s8w4(), 1e5,
                                   100.0, loose);
  const auto rt = analyze_sequence(seq, CacheConfig::example_s8w4(), 1e5,
                                   100.0, tight);
  EXPECT_LT(rl.required_runs, rt.required_runs);
}

}  // namespace
}  // namespace mbcr::tac
