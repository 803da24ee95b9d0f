#include "platform/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "ir/interp.hpp"
#include "suite/malardalen.hpp"
#include "util/stats.hpp"

namespace mbcr::platform {
namespace {

MemTrace bs_like_trace() {
  const auto b = suite::make_bs();
  return ir::lower_and_execute(b.program, b.default_input).trace;
}

TEST(Machine, FastReplayMatchesReferenceImplementation) {
  const MemTrace trace = bs_like_trace();
  const CompactTrace compact = CompactTrace::from(trace);
  const Machine machine;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    EXPECT_EQ(machine.run_once(compact, seed),
              machine.run_once_reference(trace, seed))
        << "seed " << seed;
  }
}

TEST(Machine, DeterministicPerSeed) {
  const CompactTrace compact = CompactTrace::from(bs_like_trace());
  const Machine machine;
  EXPECT_EQ(machine.run_once(compact, 7), machine.run_once(compact, 7));
}

TEST(Machine, DifferentSeedsGiveVariability) {
  const CompactTrace compact = CompactTrace::from(bs_like_trace());
  const Machine machine;
  std::vector<double> times;
  for (std::uint64_t s = 0; s < 100; ++s) {
    times.push_back(static_cast<double>(machine.run_once(compact, s)));
  }
  EXPECT_GT(mbcr::stddev(times), 0.0);
}

TEST(Machine, ExecutionTimeBounds) {
  // Every run costs at least (all hits) and at most (all misses).
  const MemTrace trace = bs_like_trace();
  const CompactTrace compact = CompactTrace::from(trace);
  const Machine machine;
  const TimingParams t = machine.config().timing;
  const std::uint64_t lo = trace.size() * t.issue_cycles;
  const std::uint64_t hi = trace.size() * (t.issue_cycles + t.mem_latency);
  for (std::uint64_t s = 0; s < 20; ++s) {
    const std::uint64_t cycles = machine.run_once(compact, s);
    EXPECT_GE(cycles, lo);
    EXPECT_LE(cycles, hi);
  }
}

TEST(Machine, BiggerCacheNeverSlowerOnAverage) {
  const CompactTrace compact = CompactTrace::from(bs_like_trace());
  MachineConfig small_cfg;
  small_cfg.il1 = CacheConfig{4, 1, 32};
  small_cfg.dl1 = CacheConfig{4, 1, 32};
  MachineConfig big_cfg;
  big_cfg.il1 = CacheConfig{128, 4, 32};
  big_cfg.dl1 = CacheConfig{128, 4, 32};
  const Machine small_m(small_cfg);
  const Machine big_m(big_cfg);
  double small_sum = 0;
  double big_sum = 0;
  for (std::uint64_t s = 0; s < 200; ++s) {
    small_sum += static_cast<double>(small_m.run_once(compact, s));
    big_sum += static_cast<double>(big_m.run_once(compact, s));
  }
  EXPECT_GT(small_sum, big_sum);
}

TEST(Machine, FlushedBetweenRuns) {
  // A trace touching one line twice must always pay exactly one miss per
  // run (cold start every run).
  MemTrace trace;
  trace.emit(0x1000, AccessKind::kIFetch);
  trace.emit(0x1000, AccessKind::kIFetch);
  const CompactTrace compact = CompactTrace::from(trace);
  const Machine machine;
  const TimingParams t = machine.config().timing;
  for (std::uint64_t s = 0; s < 10; ++s) {
    EXPECT_EQ(machine.run_once(compact, s),
              t.issue_cycles * 2 + t.mem_latency);
  }
}

TEST(Machine, FoldedHitsPayTheirBaseCostUnderAnyTiming) {
  // The folded-hit constant is priced from the machine's own timing, so
  // non-unit issue and DL1-hit costs must still match the reference.
  const MemTrace trace = bs_like_trace();
  const CompactTrace compact = CompactTrace::from(trace);
  ASSERT_GT(compact.folded_ifetches, 0u);
  ASSERT_GT(compact.folded_loads, 0u);
  MachineConfig cfg;
  cfg.timing = TimingParams{3, 5, 70};
  for (const bool l2 : {false, true}) {
    cfg.l2.enabled = l2;
    const Machine machine(cfg);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      EXPECT_EQ(machine.run_once(compact, seed),
                machine.run_once_reference(trace, seed))
          << "l2 " << l2 << " seed " << seed;
    }
  }
}

TEST(Machine, AllMissCyclesCountsEveryAccess) {
  MemTrace trace;
  trace.emit(0x1000, AccessKind::kIFetch);
  trace.emit(0x1000, AccessKind::kIFetch);  // folded in the compact trace
  trace.emit(0x8000, AccessKind::kStore);
  MachineConfig cfg;
  EXPECT_EQ(Machine(cfg).all_miss_cycles(trace), 3u * (1 + 100));
  cfg.l2.enabled = true;
  cfg.l2.latency = 10;
  const Machine two_level(cfg);
  EXPECT_EQ(two_level.all_miss_cycles(trace), 3u * (1 + 100 + 10));
  const CompactTrace compact = CompactTrace::from(trace);
  for (std::uint64_t s = 0; s < 10; ++s) {
    EXPECT_LE(two_level.run_once(compact, s),
              two_level.all_miss_cycles(trace));
  }
}

TEST(Machine, HugeSetCountsReplayInBoundedMemory) {
  // Replay holds tag state only for the sets this run's lines touch, so a
  // 2^30-set 8-way L1 (a 256 GiB cache), alone or behind a 2^30-set 8-way
  // L2 of either policy, replays with scratch buffers sized by the trace's
  // lines and entries, not by sets·ways.
  const auto b = suite::make_crc();
  const MemTrace trace =
      ir::lower_and_execute(b.program, b.default_input).trace;
  const CompactTrace compact = CompactTrace::from(trace);
  const std::size_t ni = compact.ilines.size();
  const std::size_t nd = compact.dlines.size();
  const std::size_t nu = compact.ulines.size();
  const CacheConfig huge{1u << 30, 8, 32};
  for (const int level : {0, 1, 2}) {
    MachineConfig cfg;
    cfg.il1 = huge;
    cfg.dl1 = huge;
    cfg.l2.enabled = level != 0;
    cfg.l2.l2 = huge;
    cfg.l2.policy = level == 1 ? L2Policy::kRandom : L2Policy::kLru;
    const Machine machine(cfg);
    const TimingParams& t = cfg.timing;
    // Every line misses at least once in its L1 and, behind an L2, every
    // unified line misses there at least once: the compulsory misses.
    std::uint64_t compulsory =
        level == 0 ? (ni + nd) * t.mem_latency
                   : (ni + nd) * cfg.l2.latency + nu * t.mem_latency;
    for (const Access& a : trace.accesses) {
      compulsory += t.cost(a.kind, /*hit=*/true);
    }
    RunWorkspace ws;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
      const std::uint64_t cycles = machine.run_once(compact, seed, ws);
      EXPECT_GE(cycles, compulsory) << "level " << level;
      EXPECT_LE(cycles, machine.all_miss_cycles(trace)) << "level " << level;
    }
    // Each level replays one L1 side at a time.
    const std::size_t l1_lines = std::max(ni, nd);
    EXPECT_LE(ws.line_slot.capacity(), l1_lines) << "level " << level;
    // Single level numbers one side's sets at a time; behind an L2 the
    // L2's unified lines are numbered too.
    EXPECT_LE(ws.set_table.capacity(),
              level == 0 ? 4 * std::max(ni, nd) : 4 * std::max({ni, nd, nu}))
        << "level " << level;
    EXPECT_LE(ws.walk.tags.capacity(), l1_lines * huge.ways)
        << "level " << level;
    EXPECT_LE(ws.walk.cursor.capacity(), l1_lines) << "level " << level;
    EXPECT_LE(ws.walk.absent.capacity(), l1_lines) << "level " << level;
    // Behind an L2, at most one miss per side entry.
    EXPECT_LE(ws.imisses.capacity(), level == 0 ? 0 : compact.iseq.size())
        << "level " << level;
    EXPECT_LE(ws.dmisses.capacity(), level == 0 ? 0 : compact.dseq.size())
        << "level " << level;
    EXPECT_LE(ws.l2_slot.capacity(), level == 0 ? 0 : nu)
        << "level " << level;
    EXPECT_LE(ws.l2_tags.capacity(), level == 0 ? 0 : nu * huge.ways)
        << "level " << level;
  }
}

TEST(Machine, ValidatesConfig) {
  MachineConfig cfg;
  cfg.il1.sets = 0;
  EXPECT_THROW(Machine{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace mbcr::platform
