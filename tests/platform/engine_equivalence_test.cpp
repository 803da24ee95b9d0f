// Engine-equivalence suite: every execution path must produce
// bit-identical samples for a fixed master seed — folded fast replay vs
// the reference cache model on the full trace, the pool engine vs a plain
// serial loop of run_once, any thread count, workspace reuse, streamed vs
// one-shot. These tests pin that contract.
#include <gtest/gtest.h>

#include <algorithm>

#include "ir/interp.hpp"
#include "obs/metrics.hpp"
#include "platform/campaign.hpp"
#include "platform/machine.hpp"
#include "pub/pub_transform.hpp"
#include "suite/malardalen.hpp"
#include "util/pool.hpp"

namespace mbcr::platform {
namespace {

struct TestWorkload {
  MemTrace mem;
  CompactTrace trace;
};

TestWorkload test_workload(const std::string& name = "bs") {
  const auto b = suite::make_benchmark(name);
  TestWorkload w;
  w.mem = ir::lower_and_execute(b.program, b.default_input).trace;
  w.trace = CompactTrace::from(w.mem);
  return w;
}

/// The determinism contract itself: run i of a campaign from run 0 is
/// run_once(trace, mix64(i, master_seed)).
std::vector<double> serial_campaign(const Machine& machine,
                                    const CompactTrace& trace,
                                    std::size_t runs,
                                    const CampaignConfig& cfg) {
  std::vector<double> out;
  for (std::size_t i = 0; i < runs; ++i) {
    out.push_back(static_cast<double>(
        machine.run_once(trace, mix64(i, cfg.master_seed))));
  }
  return out;
}

TEST(EngineEquivalence, FastReplayMatchesReferenceAcrossSeeds) {
  const TestWorkload w = test_workload();
  const Machine machine;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    EXPECT_EQ(machine.run_once(w.trace, seed),
              machine.run_once_reference(w.mem, seed))
        << "seed " << seed;
  }
}

TEST(EngineEquivalence, FastReplayMatchesReferenceAcrossGeometries) {
  const TestWorkload w = test_workload("janne");
  const CacheConfig geometries[] = {
      CacheConfig::paper_l1(), CacheConfig::example_s8w4(),
      CacheConfig{1, 4, 32},    // fully associative, single set
      CacheConfig{256, 1, 32},  // direct mapped
  };
  for (const CacheConfig& il1 : geometries) {
    for (const CacheConfig& dl1 : geometries) {
      MachineConfig cfg;
      cfg.il1 = il1;
      cfg.dl1 = dl1;
      const Machine machine(cfg);
      for (std::uint64_t seed : {0ull, 7ull, 123456789ull}) {
        EXPECT_EQ(machine.run_once(w.trace, seed),
                  machine.run_once_reference(w.mem, seed))
            << "il1 " << il1.sets << "x" << il1.ways << " dl1 " << dl1.sets
            << "x" << dl1.ways << " seed " << seed;
      }
    }
  }
}

TEST(EngineEquivalence, FastReplayMatchesReferenceWithWideLines) {
  // The compact trace pre-resolves byte addresses to line ids, so its line
  // size must match the cache geometry's; rebuild it for 64B lines.
  const TestWorkload w = test_workload("janne");
  const CompactTrace wide_trace = CompactTrace::from(w.mem, 64);
  MachineConfig cfg;
  cfg.il1 = CacheConfig{16, 8, 64};
  cfg.dl1 = CacheConfig{16, 8, 64};
  const Machine machine(cfg);
  for (std::uint64_t seed : {0ull, 7ull, 123456789ull}) {
    EXPECT_EQ(machine.run_once(wide_trace, seed),
              machine.run_once_reference(w.mem, seed))
        << "seed " << seed;
  }
}

TEST(EngineEquivalence, TwoLevelReplayMatchesReferenceAcrossConfigs) {
  // The fast two-level replay must agree with the generic-cache oracle
  // bit for bit: both policies, several L2 geometries (including an L2
  // *smaller* than the L1s), several seeds.
  const TestWorkload w = test_workload("janne");
  const CacheConfig l2_geometries[] = {
      CacheConfig{256, 8, 32},  // 64KB, the default
      CacheConfig{64, 4, 32},   // 8KB
      CacheConfig{16, 2, 32},   // 1KB: smaller than the L1s
      CacheConfig{1, 8, 32},    // single-set
  };
  for (const L2Policy policy : {L2Policy::kRandom, L2Policy::kLru}) {
    for (const CacheConfig& geo : l2_geometries) {
      MachineConfig cfg;
      cfg.l2.enabled = true;
      cfg.l2.l2 = geo;
      cfg.l2.policy = policy;
      const Machine machine(cfg);
      for (std::uint64_t seed : {0ull, 7ull, 123456789ull}) {
        EXPECT_EQ(machine.run_once(w.trace, seed),
                  machine.run_once_reference(w.mem, seed))
            << to_string(policy) << " L2 " << geo.sets << "x" << geo.ways
            << " seed " << seed;
      }
    }
  }
}

TEST(EngineEquivalence, ModuloPlacementReplayMatchesReference) {
  // Random-modulo placement on every level, mixed with hash placement.
  const TestWorkload w = test_workload();
  for (const Placement l1_placement : {Placement::kHash, Placement::kModulo}) {
    MachineConfig cfg;
    cfg.il1.placement = l1_placement;
    cfg.dl1.placement = Placement::kModulo;
    cfg.l2.enabled = true;
    cfg.l2.l2.placement = Placement::kModulo;
    const Machine machine(cfg);
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      EXPECT_EQ(machine.run_once(w.trace, seed),
                machine.run_once_reference(w.mem, seed))
          << "l1 placement " << to_string(l1_placement) << " seed " << seed;
    }
  }
}

TEST(EngineEquivalence, FoldedReplayMatchesReferenceOnEverySuiteKernel) {
  // Folding drops guaranteed hits from the compact trace; the reference
  // replays every access of the full trace. Every suite kernel, every
  // hierarchy flavor under both placements, several seeds.
  for (const suite::SuiteEntry& entry : suite::all()) {
    const TestWorkload w = test_workload(std::string(entry.name));
    ASSERT_EQ(w.trace.size() + w.trace.folded_ifetches +
                  w.trace.folded_loads,
              w.mem.size())
        << entry.name;
    for (const Placement placement : {Placement::kHash, Placement::kModulo}) {
      MachineConfig cfg;
      cfg.il1.placement = placement;
      cfg.dl1.placement = placement;
      cfg.l2.l2.placement = placement;
      for (const int level : {0, 1, 2}) {
        cfg.l2.enabled = level != 0;
        cfg.l2.policy = level == 1 ? L2Policy::kRandom : L2Policy::kLru;
        const Machine machine(cfg);
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
          EXPECT_EQ(machine.run_once(w.trace, seed),
                    machine.run_once_reference(w.mem, seed))
              << entry.name << " " << to_string(placement) << " level "
              << level << " seed " << seed;
        }
      }
    }
  }
}

/// The value of one registered counter (0 if it never grew).
std::uint64_t counter_value(const std::string& name) {
  const obs::CounterSnapshot snapshot = obs::snapshot_counters();
  for (const auto& [key, value] : snapshot.values()) {
    if (key == name) return value;
  }
  return 0;
}

/// Holds `machine`'s fast replay of `w.trace` to the reference on `w.mem`
/// over seeds 0..`seeds`-1.
void expect_matches_reference(const Machine& machine, const TestWorkload& w,
                              std::uint64_t seeds, const std::string& what) {
  RunWorkspace ws;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    ASSERT_EQ(machine.run_once(w.trace, seed, ws),
              machine.run_once_reference(w.mem, seed))
        << what << " seed " << seed;
  }
}

TEST(EngineEquivalence, SideSplitReplayMatchesReferenceOnEverySuiteKernel) {
  // Single level, each L1 side walks only the misses of its lines that
  // share a set, and draws once at each lone line's first use. Every suite
  // kernel, original and pubbed trace, the
  // paper's L1 under both placements, 2000 seeds each. The runs must cover
  // both shapes: runs where every line on both sides is alone (nothing
  // simulated) and runs that simulate a shared set.
  obs::reset_metrics();
  obs::set_enabled(true);
  for (const suite::SuiteEntry& entry : suite::all()) {
    const suite::SuiteBenchmark b = entry.make();
    for (const bool pubbed : {false, true}) {
      TestWorkload w;
      w.mem = ir::lower_and_execute(pubbed ? pub::apply_pub(b.program)
                                           : b.program,
                                    b.default_input)
                  .trace;
      w.trace = CompactTrace::from(w.mem);
      for (const Placement placement :
           {Placement::kHash, Placement::kModulo}) {
        MachineConfig cfg;
        cfg.il1.placement = placement;
        cfg.dl1.placement = placement;
        expect_matches_reference(
            Machine(cfg), w, 2000,
            std::string(entry.name) + (pubbed ? " pubbed " : " orig ") +
                to_string(placement));
      }
    }
  }
  const std::uint64_t runs = counter_value("replay.single_level.runs");
  const std::uint64_t conflict_free =
      counter_value("replay.single_level.conflict_free_runs");
  obs::set_enabled(false);
  obs::reset_metrics();
  EXPECT_EQ(runs, suite::all().size() * 2 * 2 * 2000);
  EXPECT_GT(conflict_free, 0u);
  EXPECT_LT(conflict_free, runs);
}

TEST(EngineEquivalence, RunsWalkExactlyTheMissesOfSidesThatShareASet) {
  // A run walks only its L1 misses, and only on sides with a shared set: a
  // side whose lines are all alone misses once per line without a walk.
  // Single level, a run's misses are its cycles over the base cost, in
  // units of `mem_latency`, so `simulated_entries` must grow by those
  // misses, less one per line of each side that shares no set in the run's
  // placement (IL1 placement sub-seed 1, DL1 2, as in
  // `run_once_reference`), and `conflict_free_runs` by one when neither
  // side shares a set. matmult, edn and crc at the paper's L1, under both
  // placements: crc runs both shapes.
  obs::reset_metrics();
  obs::set_enabled(true);
  std::uint64_t free_runs = 0;
  for (const char* kernel : {"matmult", "edn", "crc"}) {
    const TestWorkload w = test_workload(kernel);
    for (const Placement placement : {Placement::kHash, Placement::kModulo}) {
      MachineConfig cfg;
      cfg.il1.placement = placement;
      cfg.dl1.placement = placement;
      const Machine machine(cfg);
      const TimingParams& t = cfg.timing;
      const std::uint64_t base =
          (w.trace.folded_ifetches + w.trace.iseq.size()) * t.issue_cycles +
          (w.trace.folded_loads + w.trace.dseq.size()) * t.dl1_hit_cycles;
      RunWorkspace ws;
      for (std::uint64_t seed = 0; seed < 300; ++seed) {
        std::uint64_t unwalked = 0;
        bool conflict_free = true;
        for (const bool instr : {true, false}) {
          const CacheConfig& l1 = instr ? cfg.il1 : cfg.dl1;
          const std::vector<Addr>& lines =
              instr ? w.trace.ilines : w.trace.dlines;
          const std::uint64_t placement_seed = mix64(instr ? 1 : 2, seed);
          std::vector<std::uint32_t> sets;
          for (const Addr line : lines) {
            sets.push_back(
                placement_set(l1.placement, line, placement_seed, l1.sets));
          }
          std::sort(sets.begin(), sets.end());
          if (std::adjacent_find(sets.begin(), sets.end()) == sets.end()) {
            unwalked += lines.size();
          } else {
            conflict_free = false;
          }
        }
        const std::uint64_t walked_before =
            counter_value("replay.single_level.simulated_entries");
        const std::uint64_t free_before =
            counter_value("replay.single_level.conflict_free_runs");
        const std::uint64_t cycles = machine.run_once(w.trace, seed, ws);
        ws.flush_counters();
        ASSERT_EQ((cycles - base) % t.mem_latency, 0u);
        const std::uint64_t misses = (cycles - base) / t.mem_latency;
        ASSERT_GE(misses, unwalked);
        const std::string what = std::string(kernel) + " " +
                                 to_string(placement) + " seed " +
                                 std::to_string(seed);
        ASSERT_EQ(counter_value("replay.single_level.simulated_entries") -
                      walked_before,
                  misses - unwalked)
            << what;
        ASSERT_EQ(counter_value("replay.single_level.conflict_free_runs") -
                      free_before,
                  conflict_free ? 1u : 0u)
            << what;
        free_runs += conflict_free;
      }
    }
  }
  obs::set_enabled(false);
  obs::reset_metrics();
  EXPECT_GT(free_runs, 0u);
  EXPECT_LT(free_runs, 3u * 2 * 300);
}

TEST(EngineEquivalence, MissToMissReplayMatchesReferenceOnAGeometryGrid) {
  // Every suite kernel, original and pubbed trace, on L1s of 1, 2, 4, 16,
  // 64 and 1000 sets by 1, 2, 3, 4 and 8 ways under both placements, alone
  // and behind the default random and LRU L2 (placed like the L1s).
  for (const suite::SuiteEntry& entry : suite::all()) {
    const suite::SuiteBenchmark b = entry.make();
    for (const bool pubbed : {false, true}) {
      TestWorkload w;
      w.mem = ir::lower_and_execute(pubbed ? pub::apply_pub(b.program)
                                           : b.program,
                                    b.default_input)
                  .trace;
      w.trace = CompactTrace::from(w.mem);
      for (const std::uint32_t sets : {1u, 2u, 4u, 16u, 64u, 1000u}) {
        for (const std::uint32_t ways : {1u, 2u, 3u, 4u, 8u}) {
          for (const Placement placement :
               {Placement::kHash, Placement::kModulo}) {
            for (const int level : {0, 1, 2}) {
              MachineConfig cfg;
              cfg.il1 = CacheConfig{sets, ways, 32, placement};
              cfg.dl1 = cfg.il1;
              cfg.l2.enabled = level != 0;
              cfg.l2.policy = level == 1 ? L2Policy::kRandom : L2Policy::kLru;
              cfg.l2.l2.placement = placement;
              expect_matches_reference(
                  Machine(cfg), w, 8,
                  std::string(entry.name) + (pubbed ? " pubbed " : " orig ") +
                      std::to_string(sets) + "x" + std::to_string(ways) +
                      " " + to_string(placement) + " level " +
                      std::to_string(level));
            }
          }
        }
      }
    }
  }
}

TEST(EngineEquivalence, MissToMissReplayMatchesReferenceWithADeepHeap) {
  // 256 data lines cycled eight times through a 2-set 4-way DL1, forward
  // and backward in turn, with three code lines fetched between loads: at
  // most 8 data lines are ever cached, so after the first round some 248
  // evicted lines wait for their next access at once, and nearly every
  // access misses. Alone and behind both L2 policies, 500 seeds each.
  MemTrace mem;
  for (int round = 0; round < 8; ++round) {
    for (Addr i = 0; i < 256; ++i) {
      const Addr line = round % 2 == 0 ? i : 255 - i;
      mem.emit(0x100000 + line * 32, AccessKind::kLoad);
      mem.emit((i % 3) * 32, AccessKind::kIFetch);
    }
  }
  TestWorkload w;
  w.mem = mem;
  w.trace = CompactTrace::from(mem);
  ASSERT_EQ(w.trace.dlines.size(), 256u);
  for (const int level : {0, 1, 2}) {
    MachineConfig cfg;
    cfg.dl1 = CacheConfig{2, 4, 32};
    cfg.il1 = CacheConfig{2, 4, 32};
    cfg.l2.enabled = level != 0;
    cfg.l2.policy = level == 1 ? L2Policy::kRandom : L2Policy::kLru;
    cfg.l2.l2 = CacheConfig{16, 4, 32};
    expect_matches_reference(Machine(cfg), w, 500,
                             "deep heap level " + std::to_string(level));
  }
}

TEST(EngineEquivalence, LoneLineFirstMissDrawsBetweenSharedMisses) {
  // A hand-built IL1 trace (no data side) on a 4-set 2-way cache under
  // random-modulo placement, which rotates each 4-line block as a whole:
  // lines 0-3 take one set each, lines 4-5 and 8-9 two adjacent sets each.
  // Every run opens with the compulsory misses of 4, 5, 8, 9 (each shares
  // a set with a block-0 line); in 3 of 4 runs some block-0 line is alone,
  // and its first access draws a victim choice before the next misses of
  // the shared lines. Skipping that draw would shift every later victim.
  MemTrace mem;
  for (int round = 0; round < 6; ++round) {
    for (const Addr line : {4, 5, 8, 9, 0, 1, 2, 3}) {
      mem.emit(line * 32, AccessKind::kIFetch);
    }
  }
  TestWorkload w;
  w.mem = mem;
  w.trace = CompactTrace::from(mem);
  ASSERT_TRUE(w.trace.dseq.empty());
  MachineConfig cfg;
  cfg.il1 = CacheConfig{4, 2, 32, Placement::kModulo};
  expect_matches_reference(Machine(cfg), w, 2000, "hand-built");
}

TEST(EngineEquivalence, SideSplitReplayMatchesReferenceOnEdgeGeometries) {
  // Direct-mapped, one set (every line shares), a non-power-of-two set
  // count, and 16- and 64-byte lines (the compact trace is rebuilt at each
  // line size), on both sides at once.
  const CacheConfig geometries[] = {
      CacheConfig{64, 1, 32}, CacheConfig{1, 2, 32}, CacheConfig{1, 4, 32},
      CacheConfig{3, 2, 32},  CacheConfig{128, 2, 16},
      CacheConfig{32, 2, 64},
  };
  for (const char* kernel : {"bs", "crc", "ns"}) {
    const auto b = suite::make_benchmark(kernel);
    const MemTrace mem =
        ir::lower_and_execute(pub::apply_pub(b.program), b.default_input)
            .trace;
    for (const CacheConfig& geo : geometries) {
      for (const Placement placement :
           {Placement::kHash, Placement::kModulo}) {
        MachineConfig cfg;
        cfg.il1 = geo;
        cfg.il1.placement = placement;
        cfg.dl1 = cfg.il1;
        TestWorkload w;
        w.mem = mem;
        w.trace = CompactTrace::from(mem, geo.line_bytes);
        expect_matches_reference(
            Machine(cfg), w, 300,
            std::string(kernel) + " " + std::to_string(geo.sets) + "x" +
                std::to_string(geo.ways) + "x" +
                std::to_string(geo.line_bytes) + " " + to_string(placement));
      }
    }
  }
}

TEST(EngineEquivalence, SideSplitReplayHandlesAnEmptySide) {
  // Only instruction fetches, then only data loads: the missing side
  // replays nothing and costs nothing.
  for (const AccessKind kind : {AccessKind::kIFetch, AccessKind::kLoad}) {
    MemTrace mem;
    for (int round = 0; round < 20; ++round) {
      for (Addr line = 0; line < 40; line += 3) mem.emit(line * 32, kind);
    }
    TestWorkload w;
    w.mem = mem;
    w.trace = CompactTrace::from(mem);
    MachineConfig cfg;
    cfg.il1 = CacheConfig{8, 2, 32};
    cfg.dl1 = CacheConfig{8, 2, 32};
    expect_matches_reference(Machine(cfg), w, 500,
                             kind == AccessKind::kIFetch ? "ifetch only"
                                                         : "loads only");
  }
}

TEST(EngineEquivalence, TwoLevelSkipReplayMatchesReferenceOnEverySuiteKernel) {
  // Behind an L2, a run walks only the L1 misses of lines that share a
  // set, and every other line's first access. Every suite kernel, original
  // and pubbed trace, random and LRU L2, hash and modulo placement on
  // every level, 500 seeds each. The runs must walk some entries but fewer
  // than all of them.
  obs::reset_metrics();
  obs::set_enabled(true);
  for (const suite::SuiteEntry& entry : suite::all()) {
    const suite::SuiteBenchmark b = entry.make();
    for (const bool pubbed : {false, true}) {
      TestWorkload w;
      w.mem = ir::lower_and_execute(pubbed ? pub::apply_pub(b.program)
                                           : b.program,
                                    b.default_input)
                  .trace;
      w.trace = CompactTrace::from(w.mem);
      for (const L2Policy policy : {L2Policy::kRandom, L2Policy::kLru}) {
        for (const Placement placement :
             {Placement::kHash, Placement::kModulo}) {
          MachineConfig cfg;
          cfg.il1.placement = placement;
          cfg.dl1.placement = placement;
          cfg.l2.enabled = true;
          cfg.l2.policy = policy;
          cfg.l2.l2.placement = placement;
          expect_matches_reference(
              Machine(cfg), w, 500,
              std::string(entry.name) + (pubbed ? " pubbed " : " orig ") +
                  to_string(policy) + " L2 " + to_string(placement));
        }
      }
    }
  }
  std::uint64_t runs = 0;
  std::uint64_t entries = 0;
  std::uint64_t simulated = 0;
  for (const char* flavor : {"replay.l2_random.", "replay.l2_lru."}) {
    runs += counter_value(std::string(flavor) + "runs");
    entries += counter_value(std::string(flavor) + "entries");
    simulated += counter_value(std::string(flavor) + "simulated_entries");
  }
  obs::set_enabled(false);
  obs::reset_metrics();
  EXPECT_EQ(runs, suite::all().size() * 2 * 2 * 2 * 500);
  EXPECT_GT(simulated, 0u);
  EXPECT_LT(simulated, entries);
}

TEST(EngineEquivalence, BothLevelsWalkTheSameL1Misses) {
  // One L1 loop serves both levels, and an L2 never reaches back into an
  // L1. So under the same run seeds a run walks the same L1 misses, and
  // finds the same conflict-free runs, with or without an L2 behind it.
  const TestWorkload w = test_workload("crc");
  obs::reset_metrics();
  obs::set_enabled(true);
  for (const bool l2 : {false, true}) {
    MachineConfig cfg;
    cfg.l2.enabled = l2;
    const Machine machine(cfg);
    RunWorkspace ws;
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
      machine.run_once(w.trace, seed, ws);
    }
  }
  const std::uint64_t kept =
      counter_value("replay.single_level.simulated_entries");
  const std::uint64_t kept_l2 =
      counter_value("replay.l2_random.simulated_entries");
  const std::uint64_t free =
      counter_value("replay.single_level.conflict_free_runs");
  const std::uint64_t free_l2 =
      counter_value("replay.l2_random.conflict_free_runs");
  obs::set_enabled(false);
  obs::reset_metrics();
  EXPECT_EQ(kept, kept_l2);
  EXPECT_EQ(free, free_l2);
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, 2000 * w.trace.size());
  EXPECT_GT(free, 0u);
  EXPECT_LT(free, 2000u);
}

TEST(EngineEquivalence, WorkspaceTalliesReachTheCountersWhenFlushed) {
  // A run on a caller's workspace tallies there; the counters see it at
  // the flush, or when the workspace goes. The convenience overload and a
  // campaign chunk flush on their own. A run while collection is off
  // tallies nothing, even if collection is on at the flush.
  const TestWorkload w = test_workload("crc");
  const Machine machine;
  const auto runs = [] { return counter_value("replay.single_level.runs"); };
  obs::reset_metrics();
  obs::set_enabled(true);
  {
    RunWorkspace ws;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      machine.run_once(w.trace, seed, ws);
    }
    EXPECT_EQ(runs(), 0u);
    ws.flush_counters();
    EXPECT_EQ(runs(), 10u);
    obs::set_enabled(false);
    machine.run_once(w.trace, 10, ws);
    obs::set_enabled(true);
    machine.run_once(w.trace, 11, ws);
    machine.run_once(w.trace, 12, ws);
    EXPECT_EQ(runs(), 10u);
  }
  EXPECT_EQ(runs(), 12u);
  machine.run_once(w.trace, 13);
  EXPECT_EQ(runs(), 13u);
  CampaignConfig campaign;
  campaign.threads = 1;
  campaign.grain = 7;
  run_campaign(machine, w.trace, 100, campaign);
  EXPECT_EQ(runs(), 113u);
  EXPECT_EQ(counter_value("replay.single_level.entries"),
            113u * w.trace.size());
  obs::set_enabled(false);
  obs::reset_metrics();
}

TEST(EngineEquivalence, LoneLineFirstMissReachesTheL2BetweenSharedMisses) {
  // A hand-built trace on a 4-set 2-way IL1 under random-modulo placement
  // (as in LoneLineFirstMissDrawsBetweenSharedMisses: lines 4, 5, 8, 9
  // always share a set with a block-0 line, and in 3 of 4 runs some
  // block-0 line is alone), behind a random L2 of one 2-way set that every
  // line maps to. A lone line's first access misses between misses of the
  // shared lines: it draws its IL1 victim, probes the L2, misses there and
  // draws an L2 victim that may evict a shared line. Skipping either its
  // IL1 draw or its L2 probe would change the later outcomes. One data
  // line, alone in its DL1, is loaded every round and reaches the L2 once.
  MemTrace mem;
  for (int round = 0; round < 6; ++round) {
    for (const Addr line : {4, 5, 8, 9, 0, 1, 2, 3}) {
      mem.emit(line * 32, AccessKind::kIFetch);
    }
    mem.emit(0x10000, AccessKind::kLoad);
  }
  TestWorkload w;
  w.mem = mem;
  w.trace = CompactTrace::from(mem);
  ASSERT_EQ(w.trace.dlines.size(), 1u);
  MachineConfig cfg;
  cfg.il1 = CacheConfig{4, 2, 32, Placement::kModulo};
  cfg.l2.enabled = true;
  cfg.l2.l2 = CacheConfig{1, 2, 32};
  expect_matches_reference(Machine(cfg), w, 2000, "hand-built");
}

TEST(EngineEquivalence, TwoLevelSkipReplayHandlesEdgeGeometries) {
  // Direct-mapped and single-set L1s in front of a one-set L2 (1 and 8
  // ways) and the default L2, under both policies; then traces with only
  // instruction fetches or only data loads, whose missing side replays
  // nothing and costs nothing.
  const CacheConfig l1_geometries[] = {CacheConfig{64, 1, 32},
                                       CacheConfig{1, 2, 32},
                                       CacheConfig::paper_l1()};
  const CacheConfig l2_geometries[] = {CacheConfig{1, 1, 32},
                                       CacheConfig{1, 8, 32},
                                       CacheConfig{256, 8, 32}};
  for (const char* kernel : {"bs", "crc", "ns"}) {
    const auto b = suite::make_benchmark(kernel);
    TestWorkload w;
    w.mem = ir::lower_and_execute(pub::apply_pub(b.program), b.default_input)
                .trace;
    w.trace = CompactTrace::from(w.mem);
    for (const CacheConfig& l1 : l1_geometries) {
      for (const CacheConfig& l2 : l2_geometries) {
        for (const L2Policy policy : {L2Policy::kRandom, L2Policy::kLru}) {
          MachineConfig cfg;
          cfg.il1 = l1;
          cfg.dl1 = l1;
          cfg.l2.enabled = true;
          cfg.l2.l2 = l2;
          cfg.l2.policy = policy;
          expect_matches_reference(
              Machine(cfg), w, 300,
              std::string(kernel) + " L1 " + std::to_string(l1.sets) + "x" +
                  std::to_string(l1.ways) + " " + to_string(policy) +
                  " L2 " + std::to_string(l2.sets) + "x" +
                  std::to_string(l2.ways));
        }
      }
    }
  }
  for (const AccessKind kind : {AccessKind::kIFetch, AccessKind::kLoad}) {
    MemTrace mem;
    for (int round = 0; round < 20; ++round) {
      for (Addr line = 0; line < 40; line += 3) mem.emit(line * 32, kind);
    }
    TestWorkload w;
    w.mem = mem;
    w.trace = CompactTrace::from(mem);
    for (const L2Policy policy : {L2Policy::kRandom, L2Policy::kLru}) {
      MachineConfig cfg;
      cfg.il1 = CacheConfig{8, 2, 32};
      cfg.dl1 = CacheConfig{8, 2, 32};
      cfg.l2.enabled = true;
      cfg.l2.l2 = CacheConfig{4, 2, 32};
      cfg.l2.policy = policy;
      expect_matches_reference(
          Machine(cfg), w, 500,
          std::string(kind == AccessKind::kIFetch ? "ifetch only "
                                                  : "loads only ") +
              to_string(policy));
    }
  }
}

TEST(EngineEquivalence, DisabledL2IsBitIdenticalToSingleLevelMachine) {
  // A configured-but-disabled hierarchy must not perturb a single sample.
  const TestWorkload w = test_workload();
  MachineConfig cfg;
  cfg.l2.enabled = false;
  cfg.l2.l2 = CacheConfig{16, 2, 32};  // would change results if consulted
  cfg.l2.latency = 999;
  const Machine configured(cfg);
  const Machine plain;
  EXPECT_EQ(run_campaign(configured, w.trace, 500),
            run_campaign(plain, w.trace, 500));
}

TEST(EngineEquivalence, TwoLevelWorkspaceReuseAndStreamingAndThreads) {
  // The campaign-engine contract extends to two-level machines: workspace
  // reuse is bit-identical, streamed == one-shot, thread count and grain
  // don't matter.
  const TestWorkload w = test_workload();
  MachineConfig cfg;
  cfg.l2 = HierarchyConfig::shared_l2_random();
  const Machine machine(cfg);
  RunWorkspace ws;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    EXPECT_EQ(machine.run_once(w.trace, seed, ws),
              machine.run_once(w.trace, seed));
  }

  const CampaignConfig ccfg;
  CampaignSampler sampler(machine, w.trace, ccfg);
  std::vector<double> streamed;
  for (std::size_t chunk : {3, 137, 360, 500}) {
    sampler.append_to(streamed, chunk);
  }
  const std::vector<double> one_shot =
      run_campaign(machine, w.trace, 1000, ccfg);
  EXPECT_EQ(streamed, one_shot);

  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    CampaignConfig grained;
    grained.grain = 17;
    std::vector<double> times(1000);
    run_campaign_into(machine, w.trace, times.size(), times.data(), grained,
                      0, &pool);
    EXPECT_EQ(times, one_shot) << "threads " << threads;
  }
}

TEST(EngineEquivalence, WorkspaceReuseIsBitIdentical) {
  const TestWorkload w = test_workload();
  const TestWorkload small = test_workload("janne");
  MachineConfig small_cfg;
  small_cfg.il1 = CacheConfig::example_s8w4();
  small_cfg.dl1 = CacheConfig::example_s8w4();
  const Machine machine;
  const Machine small_machine(small_cfg);
  RunWorkspace ws;  // one workspace reused across runs, traces, machines
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    EXPECT_EQ(machine.run_once(w.trace, seed, ws),
              machine.run_once(w.trace, seed));
    EXPECT_EQ(small_machine.run_once(small.trace, seed, ws),
              small_machine.run_once(small.trace, seed));
  }
}

TEST(EngineEquivalence, PoolEngineInvariantUnderThreadCount) {
  const TestWorkload w = test_workload();
  const Machine machine;
  CampaignConfig cfg;
  cfg.grain = 32;
  std::vector<double> baseline;
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<double> times(3000);
    run_campaign_into(machine, w.trace, times.size(), times.data(), cfg, 0,
                      &pool);
    if (baseline.empty()) {
      baseline = times;
    } else {
      EXPECT_EQ(baseline, times) << "threads " << threads;
    }
  }
}

TEST(EngineEquivalence, PoolEngineMatchesSerialRunOnceLoop) {
  const TestWorkload w = test_workload("crc");
  const Machine machine;
  const std::vector<double> want =
      serial_campaign(machine, w.trace, 2000, CampaignConfig{});
  for (unsigned threads : {1u, 2u, 8u}) {
    CampaignConfig cfg;
    cfg.threads = threads;
    EXPECT_EQ(run_campaign(machine, w.trace, 2000, cfg), want)
        << "threads " << threads;
  }
}

TEST(EngineEquivalence, StreamedSamplesMatchOneShotCampaign) {
  // The streaming-sink property: growing one sample buffer through
  // CampaignSampler::append_to reproduces the one-shot campaign exactly,
  // whatever the chunking.
  const TestWorkload w = test_workload();
  const Machine machine;
  const CampaignConfig cfg;
  CampaignSampler sampler(machine, w.trace, cfg);
  std::vector<double> streamed;
  for (std::size_t chunk : {1, 137, 300, 62, 500}) {
    sampler.append_to(streamed, chunk);
  }
  EXPECT_EQ(sampler.runs_done(), 1000u);
  EXPECT_EQ(streamed, run_campaign(machine, w.trace, 1000, cfg));
}

TEST(EngineEquivalence, GrainDoesNotChangeResults) {
  const TestWorkload w = test_workload();
  const Machine machine;
  CampaignConfig coarse;
  coarse.grain = 1024;
  CampaignConfig fine;
  fine.grain = 1;
  EXPECT_EQ(run_campaign(machine, w.trace, 1500, coarse),
            run_campaign(machine, w.trace, 1500, fine));
}

}  // namespace
}  // namespace mbcr::platform
