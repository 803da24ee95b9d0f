// The differential fuzzing harness, tested as a subsystem: deterministic
// case generation, all eight oracles green on the healthy build, failure
// detection + shrinking + repro emission via the synthetic fault switch,
// and the repro JSON round trip. The replay and vm faults of a
// fault-injection build have gated tests at the bottom. Tests of the
// driver's failure path run it blind and guided alike.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "fuzz/fuzz.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"
#include "ir/printer.hpp"
#include "util/fault.hpp"

namespace mbcr::fuzz {
namespace {

std::string case_fingerprint(const FuzzCaseData& data) {
  // The repro document captures program, inputs, seeds and machine — a
  // convenient total fingerprint for determinism checks.
  Repro repro;
  repro.data = data;
  return repro_to_json(repro).dump(2);
}

TEST(FuzzCase, DerivationIsDeterministic) {
  const FuzzCaseData a = make_case(1, 3, 8);
  const FuzzCaseData b = make_case(1, 3, 8);
  EXPECT_EQ(ir::to_string(a.program), ir::to_string(b.program));
  EXPECT_EQ(case_fingerprint(a), case_fingerprint(b));

  // Different indices and master seeds give different cases.
  EXPECT_NE(case_fingerprint(a), case_fingerprint(make_case(1, 4, 8)));
  EXPECT_NE(case_fingerprint(a), case_fingerprint(make_case(2, 3, 8)));
}

TEST(FuzzCase, FlavorGridCoversHierarchyAndPlacement) {
  const FuzzCaseData data = make_case(1, 0, 2);
  const std::vector<platform::MachineConfig> grid = flavor_grid(data.machine);
  ASSERT_EQ(grid.size(), 6u);
  int l1_only = 0, random_l2 = 0, lru_l2 = 0, modulo = 0;
  for (const platform::MachineConfig& cfg : grid) {
    if (!cfg.l2.enabled) {
      ++l1_only;
    } else if (cfg.l2.policy == L2Policy::kRandom) {
      ++random_l2;
    } else {
      ++lru_l2;
    }
    if (cfg.il1.placement == Placement::kModulo) {
      ++modulo;
      EXPECT_EQ(cfg.dl1.placement, Placement::kModulo);
      EXPECT_EQ(cfg.l2.l2.placement, Placement::kModulo);
    }
  }
  EXPECT_EQ(l1_only, 2);
  EXPECT_EQ(random_l2, 2);
  EXPECT_EQ(lru_l2, 2);
  EXPECT_EQ(modulo, 3);
}

TEST(FuzzHarness, DeterministicSmokeRunPassesAllOracles) {
  FuzzConfig cfg;
  cfg.programs = 10;
  cfg.seeds = 4;
  cfg.rng_seed = 1;
  const FuzzReport report = run_fuzz(cfg);
  EXPECT_TRUE(report.ok()) << (report.failures.empty()
                                   ? ""
                                   : report.failures.front().detail);
  EXPECT_EQ(report.cases_run, 10u);
  EXPECT_EQ(report.oracle_runs, 10u * all_oracles().size());

  // Re-running the same config reproduces the same accounting.
  const FuzzReport again = run_fuzz(cfg);
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(again.cases_run, report.cases_run);
  EXPECT_EQ(again.oracle_runs, report.oracle_runs);
}

TEST(FuzzHarness, EachOraclePassesIndividually) {
  const FuzzCaseData data = make_case(7, 2, 4);
  for (const Oracle& oracle : all_oracles()) {
    const OracleOutcome outcome = oracle.run(data, false);
    EXPECT_TRUE(outcome.ok) << oracle.name << ": " << outcome.detail;
  }
}

TEST(FuzzHarness, OracleRegistryLookup) {
  EXPECT_NE(find_oracle("replay"), nullptr);
  EXPECT_NE(find_oracle("study_json"), nullptr);
  EXPECT_NE(find_oracle("vm"), nullptr);
  EXPECT_NE(find_oracle("verify"), nullptr);
  EXPECT_EQ(find_oracle("nosuch"), nullptr);
  EXPECT_EQ(find_oracle("all"), nullptr);  // "all" is a CLI alias, not an oracle
  EXPECT_NE(find_oracle("evt"), nullptr);
  EXPECT_EQ(all_oracles().size(), 8u);
}

TEST(FuzzHarness, RejectsBadConfig) {
  for (const bool guided : {false, true}) {
    SCOPED_TRACE(guided ? "guided" : "blind");
    FuzzConfig cfg;
    cfg.guided = guided;
    cfg.oracle = "nosuch";
    EXPECT_THROW(run_fuzz(cfg), std::invalid_argument);
    cfg.oracle = "all";
    cfg.seeds = 0;
    EXPECT_THROW(run_fuzz(cfg), std::invalid_argument);
    cfg.seeds = 4;
    cfg.programs = 0;
    cfg.time_budget_s = 0;
    EXPECT_THROW(run_fuzz(cfg), std::invalid_argument);
  }
}

TEST(FuzzHarness, TimeBudgetModeTerminatesAndRunsCases) {
  FuzzConfig cfg;
  cfg.programs = 0;
  cfg.time_budget_s = 0.05;
  cfg.seeds = 2;
  const FuzzReport report = run_fuzz(cfg);
  EXPECT_GE(report.cases_run, 1u);
  EXPECT_TRUE(report.ok());
}

// --- failure path: the synthetic fault proves the harness can fail -------

TEST(FuzzHarness, InjectedFaultIsCaughtShrunkAndEmitted) {
  for (const bool guided : {false, true}) {
    SCOPED_TRACE(guided ? "guided" : "blind");
    FuzzConfig cfg;
    cfg.programs = 2;
    cfg.seeds = 4;
    cfg.rng_seed = 1;
    cfg.guided = guided;
    cfg.inject_fault_for_test = true;
    cfg.corpus_dir = ::testing::TempDir();
    const FuzzReport report = run_fuzz(cfg);
    // The synthetic fault fails every case, so each one is a failure...
    ASSERT_EQ(report.failures.size(), cfg.programs);
    const FuzzFailure& failure = report.failures.front();
    EXPECT_EQ(failure.oracle, "replay");
    EXPECT_NE(failure.detail.find("!="), std::string::npos);

    // The shrinker must have made real progress: the synthetic fault
    // fails on any program, so the minimal case is nearly empty.
    EXPECT_LE(ir::stmt_count(failure.shrunk.program.body), 3u);
    EXPECT_EQ(failure.shrunk.inputs.size(), 1u);
    EXPECT_EQ(failure.shrunk.run_seeds.size(), 1u);

    // The emitted repro is self-contained and — in this healthy build —
    // replays green (the corpus contract for fixed bugs).
    ASSERT_FALSE(failure.repro_path.empty());
    const Repro repro = load_repro(failure.repro_path);
    EXPECT_EQ(repro.oracle, "replay");
    EXPECT_EQ(ir::to_string(repro.data.program),
              ir::to_string(failure.shrunk.program));
    const OracleOutcome replay = run_repro(repro);
    EXPECT_TRUE(replay.ok) << replay.detail;
    // ... and failing cases never become corpus seeds.
    EXPECT_TRUE(report.corpus.empty());
    for (const FuzzFailure& f : report.failures) {
      std::remove(f.repro_path.c_str());
    }
  }
}

TEST(FuzzHarness, UnwritableCorpusDirDoesNotAbortTheRun) {
  FuzzConfig cfg;
  cfg.programs = 1;
  cfg.seeds = 2;
  cfg.inject_fault_for_test = true;
  cfg.shrink = false;
  cfg.corpus_dir = "/nonexistent/fuzz/corpus";
  const FuzzReport report = run_fuzz(cfg);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_TRUE(report.failures.front().repro_path.empty());
}

TEST(FuzzShrink, KeepsTheFailureWhileShrinking) {
  const FuzzCaseData data = make_case(1, 0, 8);
  const Oracle* replay = find_oracle("replay");
  ASSERT_NE(replay, nullptr);
  ASSERT_FALSE(replay->run(data, /*inject_fault=*/true).ok);

  ShrinkStats stats;
  const FuzzCaseData shrunk =
      shrink_case(data, *replay, /*inject_fault=*/true, 600, &stats);
  EXPECT_GT(stats.accepted, 0u);
  // The synthetic fault fails on every candidate, so all evaluations are
  // accepted shrink steps.
  EXPECT_GE(stats.evaluated, stats.accepted);
  // Still failing, and strictly smaller on every shrinking axis the
  // synthetic fault allows.
  EXPECT_FALSE(replay->run(shrunk, true).ok);
  EXPECT_LT(ir::stmt_count(shrunk.program.body),
            ir::stmt_count(data.program.body));
  EXPECT_LE(shrunk.inputs.size(), 1u);
  EXPECT_LE(shrunk.run_seeds.size(), 1u);
  EXPECT_LE(shrunk.program.arrays.size(), data.program.arrays.size());
}

// --- repro documents ------------------------------------------------------

TEST(FuzzRepro, JsonRoundTripIsTextIdentical) {
  Repro repro;
  repro.oracle = "campaign";
  repro.detail = "some detail";
  repro.data = make_case(5, 1, 4);
  const std::string text = repro_to_json(repro).dump(2);
  const Repro reread = repro_from_json(json::parse(text));
  EXPECT_EQ(repro_to_json(reread).dump(2), text);
  EXPECT_EQ(reread.oracle, "campaign");
  EXPECT_EQ(ir::to_string(reread.data.program),
            ir::to_string(repro.data.program));
  EXPECT_EQ(reread.data.run_seeds, repro.data.run_seeds);
}

TEST(FuzzRepro, RunsAllOraclesWhenAskedTo) {
  Repro repro;
  repro.oracle = "all";
  repro.data = make_case(9, 0, 2);
  const OracleOutcome outcome = run_repro(repro);
  EXPECT_TRUE(outcome.ok) << outcome.detail;
}

TEST(FuzzRepro, RejectsMalformedDocuments) {
  EXPECT_THROW(repro_from_json(json::parse("{\"schema\": \"nope\"}")),
               std::invalid_argument);
  Repro repro;
  repro.oracle = "nosuch";
  repro.data = make_case(9, 0, 2);
  EXPECT_THROW(run_repro(repro), std::invalid_argument);
  // A missing repro file is a usage error (exit 2), not a runtime one.
  EXPECT_THROW(load_repro("/nonexistent/repro.json"), std::invalid_argument);
}

// --- the deliberate faults of a fault-injection build ---------------------

#ifdef MBCR_FAULT_INJECTION
/// Arms one fault for a test's lifetime, so a failed assertion cannot leave
/// it armed for the tests that follow.
struct ArmedFault {
  explicit ArmedFault(fault::Kind kind) { fault::set_armed({kind}); }
  ~ArmedFault() { fault::set_armed({}); }
};

TEST(FuzzFault, ArmedReplayFaultIsCaughtAndShrunkByTheFuzzer) {
  // The replay oracle must catch the deliberate bug with NO synthetic
  // injection (the bug drops a DL1 miss penalty).
  for (const bool guided : {false, true}) {
    SCOPED_TRACE(guided ? "guided" : "blind");
    FuzzConfig cfg;
    // Bounded budgets: the blind stream must find the fault within its
    // first 5 cases; the guided one gets 10, as it always had.
    cfg.programs = guided ? 10 : 5;
    cfg.seeds = 4;
    cfg.rng_seed = 1;
    cfg.guided = guided;
    cfg.corpus_dir = ::testing::TempDir();
    FuzzReport report;
    {
      const ArmedFault armed(fault::Kind::kReplay);
      report = run_fuzz(cfg);
    }
    ASSERT_FALSE(report.ok());
    const FuzzFailure& failure = report.failures.front();
    EXPECT_EQ(failure.oracle, "replay");
    ASSERT_FALSE(failure.repro_path.empty());
    // Disarmed, the platform is healthy again: the repro replays green
    // and the same run passes.
    EXPECT_TRUE(run_repro(load_repro(failure.repro_path)).ok);
    for (const FuzzFailure& f : report.failures) {
      std::remove(f.repro_path.c_str());
    }
    EXPECT_TRUE(run_fuzz(cfg).ok());
  }
}

TEST(FuzzVmFault, ArmedMiscompileIsCaughtShrunkAndEmitted) {
  // The vm oracle must catch the deliberate miscompile (the first element
  // load of every VM run yields value+1) purely differentially — the
  // tree-walker is untouched, so only the vm-vs-tree comparison can see
  // it. The shrunk case must still carry an array (the bug lives in
  // element loads), and the emitted repro must be a well-formed corpus
  // candidate targeting the vm oracle.
  for (const bool guided : {false, true}) {
    SCOPED_TRACE(guided ? "guided" : "blind");
    FuzzConfig cfg;
    cfg.programs = 10;
    cfg.seeds = 2;
    cfg.rng_seed = 1;
    cfg.oracle = "vm";
    cfg.guided = guided;
    cfg.corpus_dir = ::testing::TempDir();
    Repro repro;
    {
      const ArmedFault armed(fault::Kind::kVm);
      const FuzzReport report = run_fuzz(cfg);
      ASSERT_FALSE(report.ok());
      const FuzzFailure& failure = report.failures.front();
      EXPECT_EQ(failure.oracle, "vm");
      EXPECT_FALSE(failure.shrunk.program.arrays.empty());
      // The first case is always a blind one, and the fault is in every
      // program with an element load: it fails first, in both modes.
      EXPECT_EQ(failure.case_index, 0u);
      EXPECT_LE(ir::stmt_count(failure.shrunk.program.body),
                ir::stmt_count(make_case(1, 0, 2).program.body));

      ASSERT_FALSE(failure.repro_path.empty());
      repro = load_repro(failure.repro_path);
      EXPECT_EQ(repro.oracle, "vm");
      EXPECT_EQ(ir::to_string(repro.data.program),
                ir::to_string(failure.shrunk.program));
      for (const FuzzFailure& f : report.failures) {
        std::remove(f.repro_path.c_str());
      }
    }
    // Disarmed, the VM is healthy again: the same repro replays green —
    // exactly what the committed corpus entry checks.
    const OracleOutcome replay = run_repro(repro);
    EXPECT_TRUE(replay.ok) << replay.detail;
  }
}
#endif

}  // namespace
}  // namespace mbcr::fuzz
