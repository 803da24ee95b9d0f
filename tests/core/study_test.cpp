#include "core/study.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "suite/malardalen.hpp"
#include "util/json.hpp"

namespace mbcr::core {
namespace {

/// Small campaigns so the whole suite stays test-sized.
StudySpec fast_spec(const std::string& suite, StudyMode mode) {
  StudySpec spec;
  spec.suite = suite;
  spec.mode = mode;
  spec.config.convergence.max_runs = 5000;
  spec.config.tac.max_runs_cap = 5000;
  spec.curve_max_exp = 12;
  return spec;
}

TEST(StudyMode, RoundTripsThroughStrings) {
  for (const StudyMode mode :
       {StudyMode::kOrig, StudyMode::kPub, StudyMode::kPubTac,
        StudyMode::kMultipath, StudyMode::kMeasure}) {
    EXPECT_EQ(parse_study_mode(to_string(mode)), mode);
  }
  EXPECT_THROW(parse_study_mode("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_study_mode(""), std::invalid_argument);
}

TEST(StudySpec, FlagDefaultsReproduceDefaultSpec) {
  const StudySpec spec = StudySpec::from_flags(StudySpec::flag_spec());
  const StudySpec dflt;
  EXPECT_EQ(spec.suite, "");
  EXPECT_FALSE(spec.randprog_seed.has_value());
  EXPECT_EQ(spec.mode, dflt.mode);
  EXPECT_EQ(spec.inputs, dflt.inputs);
  EXPECT_EQ(spec.config.campaign.master_seed,
            dflt.config.campaign.master_seed);
  EXPECT_EQ(spec.config.campaign.grain, dflt.config.campaign.grain);
  EXPECT_EQ(spec.config.machine.il1.sets, dflt.config.machine.il1.sets);
  EXPECT_EQ(spec.config.machine.dl1.ways, dflt.config.machine.dl1.ways);
  EXPECT_EQ(spec.config.convergence.min_runs,
            dflt.config.convergence.min_runs);
  EXPECT_DOUBLE_EQ(spec.config.convergence.tolerance,
                   dflt.config.convergence.tolerance);
  EXPECT_EQ(spec.config.convergence.max_runs,
            dflt.config.convergence.max_runs);
  EXPECT_DOUBLE_EQ(spec.config.tac.target_miss_prob,
                   dflt.config.tac.target_miss_prob);
  EXPECT_EQ(spec.config.tac.max_runs_cap, dflt.config.tac.max_runs_cap);
  EXPECT_EQ(spec.config.baseline_probe_runs, dflt.config.baseline_probe_runs);
  EXPECT_DOUBLE_EQ(spec.config.pwcet_probability,
                   dflt.config.pwcet_probability);
  EXPECT_EQ(spec.measure_runs, dflt.measure_runs);
  EXPECT_EQ(spec.measure_pub, dflt.measure_pub);
  EXPECT_EQ(spec.curve_max_exp, dflt.curve_max_exp);
  EXPECT_EQ(spec.config.pub.merge, dflt.config.pub.merge);
  EXPECT_EQ(spec.config.pub.pad_loops, dflt.config.pub.pad_loops);
}

TEST(StudySpec, FromFlagsParsesOverrides) {
  auto flags = StudySpec::flag_spec();
  flags["suite"] = "crc";
  flags["mode"] = "multipath";
  flags["input"] = "all";
  flags["seed"] = "7";
  flags["threads"] = "3";
  flags["grain"] = "17";
  flags["sets"] = "8";
  flags["ways"] = "4";
  flags["tolerance"] = "0.05";
  flags["max-runs"] = "1234";
  flags["pwcet-prob"] = "1e-9";
  flags["measure-pub"] = "true";
  flags["pub-merge"] = "append";
  const StudySpec spec = StudySpec::from_flags(flags);
  EXPECT_EQ(spec.suite, "crc");
  EXPECT_EQ(spec.mode, StudyMode::kMultipath);
  EXPECT_EQ(spec.inputs, InputSelection::kAllPaths);
  EXPECT_EQ(spec.config.campaign.master_seed, 7u);
  EXPECT_EQ(spec.config.campaign.threads, 3u);
  EXPECT_EQ(spec.config.campaign.grain, 17u);
  EXPECT_EQ(spec.config.machine.il1.sets, 8u);
  EXPECT_EQ(spec.config.machine.dl1.ways, 4u);
  EXPECT_DOUBLE_EQ(spec.config.convergence.tolerance, 0.05);
  EXPECT_EQ(spec.config.convergence.max_runs, 1234u);
  EXPECT_DOUBLE_EQ(spec.config.pwcet_probability, 1e-9);
  EXPECT_TRUE(spec.measure_pub);
  EXPECT_EQ(spec.config.pub.merge, pub::BranchMerge::kAppendGhost);
}

TEST(StudySpec, FromFlagsRejectsBadValues) {
  auto flags = StudySpec::flag_spec();
  flags["seed"] = "not-a-number";
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);
  flags = StudySpec::flag_spec();
  flags["tolerance"] = "0.03x";
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);
  flags = StudySpec::flag_spec();
  flags["mode"] = "everything";
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);
  flags = StudySpec::flag_spec();
  flags["pub-merge"] = "zip";
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);
  // Non-finite numbers must not slip into a spec (NaN passes naive range
  // checks).
  flags = StudySpec::flag_spec();
  flags["pwcet-prob"] = "nan";
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);
  flags = StudySpec::flag_spec();
  flags["tolerance"] = "inf";
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);
  // Boolean-valued flags are strict too: garbage must not silently read
  // as false (the enum-flag audit, PR 5).
  flags = StudySpec::flag_spec();
  flags["measure-pub"] = "maybe";
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);
  flags = StudySpec::flag_spec();
  flags["pad-loops"] = "2";
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);
}

TEST(StudySpec, FromFlagsRejectsIntegersTheFieldCannotHold) {
  // Each of these used to wrap silently: --sets 4294967297 ran a 1-set
  // L1, --ways 4294967298 two ways, --curve-exp 4294967301 five decades.
  const std::pair<const char*, const char*> cases[] = {
      {"sets", "4294967297"},     {"ways", "4294967298"},
      {"l2-sets", "4294967296"},  {"l2-ways", "4294967296"},
      {"threads", "4294967297"},  {"curve-exp", "4294967301"},
      {"curve-exp", "2147483648"},
  };
  for (const auto& [flag, value] : cases) {
    auto flags = StudySpec::flag_spec();
    flags["suite"] = "bs";
    flags[flag] = value;
    try {
      StudySpec::from_flags(flags);
      FAIL() << "--" << flag << " " << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  }
  // The largest value each field holds still parses.
  auto flags = StudySpec::flag_spec();
  flags["sets"] = "4294967295";
  flags["curve-exp"] = "2147483647";
  const StudySpec spec = StudySpec::from_flags(flags);
  EXPECT_EQ(spec.config.machine.il1.sets, 4294967295u);
  EXPECT_EQ(spec.curve_max_exp, 2147483647);
}

TEST(StudySpec, FromFlagsParsesHierarchyAndPlacement) {
  auto flags = StudySpec::flag_spec();
  flags["suite"] = "bs";
  flags["placement"] = "modulo";
  flags["l2-sets"] = "128";
  flags["l2-ways"] = "4";
  flags["l2-policy"] = "lru";
  flags["l2-latency"] = "7";
  const StudySpec spec = StudySpec::from_flags(flags);
  EXPECT_EQ(spec.config.machine.il1.placement, Placement::kModulo);
  EXPECT_EQ(spec.config.machine.dl1.placement, Placement::kModulo);
  ASSERT_TRUE(spec.config.machine.l2.enabled);
  EXPECT_EQ(spec.config.machine.l2.l2.sets, 128u);
  EXPECT_EQ(spec.config.machine.l2.l2.ways, 4u);
  EXPECT_EQ(spec.config.machine.l2.l2.line_bytes,
            spec.config.machine.il1.line_bytes);
  EXPECT_EQ(spec.config.machine.l2.policy, L2Policy::kLru);
  EXPECT_EQ(spec.config.machine.l2.latency, 7u);
  EXPECT_NO_THROW(spec.validate());

  // Default l2-sets 0 leaves the hierarchy disabled.
  const StudySpec dflt = StudySpec::from_flags(StudySpec::flag_spec());
  EXPECT_FALSE(dflt.config.machine.l2.enabled);
  EXPECT_EQ(dflt.config.machine.il1.placement, Placement::kHash);

  flags["l2-policy"] = "fifo";
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);
  flags["l2-policy"] = "lru";
  flags["placement"] = "xor";
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);

  // L2 flags without --l2-sets must fail loudly, not silently run a
  // single-level study; malformed values fail even with l2-sets 0.
  flags = StudySpec::flag_spec();
  flags["suite"] = "bs";
  flags["l2-policy"] = "lru";  // l2-sets left at 0
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);
  flags = StudySpec::flag_spec();
  flags["suite"] = "bs";
  flags["l2-latency"] = "99";
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);
  flags = StudySpec::flag_spec();
  flags["suite"] = "bs";
  flags["l2-policy"] = "fifo";
  EXPECT_THROW(StudySpec::from_flags(flags), std::invalid_argument);
}

TEST(StudySpec, ValidateRejectsBadHierarchy) {
  StudySpec spec;
  spec.suite = "bs";
  spec.config.machine.l2.enabled = true;
  spec.config.machine.l2.l2 = CacheConfig{0, 8, 32};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.config.machine.l2.l2 = CacheConfig{256, 8, 64};  // line mismatch
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.config.machine.l2.l2 = CacheConfig{256, 8, 32};
  EXPECT_NO_THROW(spec.validate());
}

TEST(StudySpec, JsonRoundTripsExactly) {
  auto flags = StudySpec::flag_spec();
  flags["suite"] = "crc";
  flags["mode"] = "multipath";
  flags["seed"] = "18446744073709551615";  // 64-bit seed, full precision
  flags["placement"] = "modulo";
  flags["l2-sets"] = "512";
  flags["l2-policy"] = "random";
  flags["l2-placement"] = "modulo";
  flags["l2-latency"] = "12";
  flags["tolerance"] = "0.07";
  flags["pub-merge"] = "append";
  const StudySpec spec = StudySpec::from_flags(flags);

  const json::Value doc = spec.to_json();
  const StudySpec back = StudySpec::from_json(doc);
  EXPECT_EQ(back.to_json().dump(2), doc.dump(2));
  EXPECT_EQ(back.config.campaign.master_seed, 18446744073709551615ull);
  EXPECT_EQ(back.config.machine.l2.l2.sets, 512u);
  EXPECT_EQ(back.config.machine.l2.l2.placement, Placement::kModulo);
  EXPECT_EQ(back.config.machine.il1.placement, Placement::kModulo);
  EXPECT_EQ(back.config.pub.merge, pub::BranchMerge::kAppendGhost);
}

TEST(StudySpec, CampaignBatchIsAFixedV6FieldAndIgnoredOnRead) {
  // Replay no longer batches: --batch is not a flag, documents always
  // carry "batch": 32, and any width a document was written with reads
  // back as the same spec (every width gave the identical sample).
  EXPECT_EQ(StudySpec::flag_spec().count("batch"), 0u);
  const StudySpec spec;
  const std::string text = spec.to_json().dump(2);
  EXPECT_NE(text.find("\"batch\": 32"), std::string::npos);
  const std::string wide = std::string(text).replace(
      text.find("\"batch\": 32"), 11, "\"batch\": 9");
  EXPECT_EQ(StudySpec::from_json(json::parse(wide)).to_json().dump(2), text);
}

TEST(StudySpec, FromJsonReadsV1DocumentsWithDefaults) {
  // A v1-era spec: no machine.l2, no placement members. It must load as
  // the single-level hash-placement platform it described.
  const json::Value doc = json::parse(R"({
    "suite": "bs", "mode": "pub", "input": "all",
    "machine": {"il1": {"sets": 8, "ways": 4, "line_bytes": 32},
                "dl1": {"sets": 64, "ways": 2, "line_bytes": 32},
                "timing": {"mem_latency": 50}},
    "campaign": {"master_seed": "7"}
  })");
  const StudySpec spec = StudySpec::from_json(doc);
  EXPECT_EQ(spec.suite, "bs");
  EXPECT_EQ(spec.mode, StudyMode::kPub);
  EXPECT_EQ(spec.inputs, InputSelection::kAllPaths);
  EXPECT_EQ(spec.config.machine.il1.sets, 8u);
  EXPECT_EQ(spec.config.machine.il1.placement, Placement::kHash);
  EXPECT_FALSE(spec.config.machine.l2.enabled);
  EXPECT_EQ(spec.config.machine.timing.mem_latency, 50u);
  EXPECT_EQ(spec.config.campaign.master_seed, 7u);
  // Unmentioned knobs keep their defaults.
  const StudySpec dflt;
  EXPECT_EQ(spec.config.convergence.max_runs,
            dflt.config.convergence.max_runs);
  EXPECT_NO_THROW(spec.validate());
}

TEST(StudySpec, ExecutorIsAFixedV6FieldThatStillReadsTree) {
  // The bytecode VM is the only engine: --executor is not a flag, and
  // documents always carry "executor": "vm". A v4-v6 document written
  // with "tree" loads, runs and writes the same bytes as with "vm" (the
  // two engines were bit-identical); any other value is malformed.
  EXPECT_EQ(StudySpec::flag_spec().count("executor"), 0u);
  StudySpec spec = fast_spec("bs", StudyMode::kPubTac);
  spec.config.convergence.max_runs = 2000;
  spec.config.tac.max_runs_cap = 2000;
  std::ostringstream written;
  run_study(spec).write_json(written);
  const std::string vm_doc = written.str();  // a whole mbcr-study-v6 doc
  const std::string field = "\"executor\": \"vm\"";
  const auto at = vm_doc.find(field);
  ASSERT_NE(at, std::string::npos);
  const auto with_executor = [&](const char* name) {
    return std::string(vm_doc).replace(
        at, field.size(), std::string("\"executor\": \"") + name + "\"");
  };

  const auto run_text = [](const std::string& doc) {
    std::ostringstream out;
    run_study(StudySpec::from_json(json::parse(doc))).write_json(out);
    return out.str();
  };
  EXPECT_EQ(run_text(with_executor("tree")), vm_doc);
  EXPECT_THROW(StudySpec::from_json(json::parse(with_executor("jit"))),
               std::invalid_argument);
}

TEST(StudySpec, FromJsonAcceptsWholeResultDocuments) {
  StudySpec spec = fast_spec("bs", StudyMode::kMeasure);
  spec.measure_runs = 5;
  const StudyResult result = run_study(spec);
  std::ostringstream ss;
  result.write_json(ss);
  const StudySpec back = StudySpec::from_json(json::parse(ss.str()));
  EXPECT_EQ(back.to_json().dump(2), result.spec.to_json().dump(2));
}

TEST(StudySpec, InputSelectorRoundTrips) {
  StudySpec spec;
  spec.set_input_selector("default");
  EXPECT_EQ(spec.inputs, InputSelection::kDefault);
  EXPECT_EQ(spec.input_selector(), "default");
  spec.set_input_selector("all");
  EXPECT_EQ(spec.inputs, InputSelection::kAllPaths);
  EXPECT_EQ(spec.input_selector(), "all");
  spec.set_input_selector("v9");
  EXPECT_EQ(spec.inputs, InputSelection::kLabel);
  EXPECT_EQ(spec.input_label, "v9");
  EXPECT_EQ(spec.input_selector(), "v9");
}

TEST(StudySpec, ValidateRejectsInconsistentSpecs) {
  StudySpec none;  // no program source
  EXPECT_THROW(none.validate(), std::invalid_argument);

  StudySpec both;
  both.suite = "bs";
  both.randprog_seed = 1;
  EXPECT_THROW(both.validate(), std::invalid_argument);

  StudySpec unknown;
  unknown.suite = "not-a-kernel";
  EXPECT_THROW(unknown.validate(), std::invalid_argument);

  StudySpec bad_prob;
  bad_prob.suite = "bs";
  bad_prob.config.pwcet_probability = 2.0;
  EXPECT_THROW(bad_prob.validate(), std::invalid_argument);

  StudySpec nan_prob;
  nan_prob.suite = "bs";
  nan_prob.config.pwcet_probability = std::nan("");
  EXPECT_THROW(nan_prob.validate(), std::invalid_argument);

  StudySpec nan_tol;
  nan_tol.suite = "bs";
  nan_tol.config.convergence.tolerance = std::nan("");
  EXPECT_THROW(nan_tol.validate(), std::invalid_argument);

  StudySpec zero_measure;
  zero_measure.suite = "bs";
  zero_measure.mode = StudyMode::kMeasure;
  zero_measure.measure_runs = 0;
  EXPECT_THROW(zero_measure.validate(), std::invalid_argument);

  StudySpec rand_label;
  rand_label.randprog_seed = 1;
  rand_label.inputs = InputSelection::kLabel;
  rand_label.input_label = "v1";
  EXPECT_THROW(rand_label.validate(), std::invalid_argument);

  StudySpec ok;
  ok.suite = "bs";
  EXPECT_NO_THROW(ok.validate());
}

TEST(StudySpec, ValidateRejectsConvergenceItCannotReach) {
  // A max-runs below min-runs used to be ignored (the study ran min-runs
  // and exited 0), and a zero window spent the whole max-runs budget.
  for (const StudyMode mode : {StudyMode::kOrig, StudyMode::kPub,
                               StudyMode::kPubTac, StudyMode::kMultipath}) {
    SCOPED_TRACE(to_string(mode));
    StudySpec inverted;
    inverted.suite = "bs";
    inverted.mode = mode;
    inverted.config.convergence.min_runs = 5000;
    inverted.config.convergence.max_runs = 100;
    EXPECT_THROW(inverted.validate(), std::invalid_argument);

    StudySpec no_window;
    no_window.suite = "bs";
    no_window.mode = mode;
    no_window.config.convergence.window = 0;
    EXPECT_THROW(no_window.validate(), std::invalid_argument);

    // A zero growth step: min-runs 0 with delta 0 once never returned.
    StudySpec no_delta;
    no_delta.suite = "bs";
    no_delta.mode = mode;
    no_delta.config.convergence.min_runs = 0;
    no_delta.config.convergence.delta = 0;
    EXPECT_THROW(no_delta.validate(), std::invalid_argument);

    StudySpec equal;
    equal.suite = "bs";
    equal.mode = mode;
    equal.config.convergence.min_runs = 400;
    equal.config.convergence.max_runs = 400;
    equal.config.convergence.window = 1;
    EXPECT_NO_THROW(equal.validate());
  }
  // Measure mode runs a fixed campaign: the convergence knobs are unused.
  StudySpec measure;
  measure.suite = "bs";
  measure.mode = StudyMode::kMeasure;
  measure.config.convergence.min_runs = 5000;
  measure.config.convergence.max_runs = 100;
  measure.config.convergence.window = 0;
  measure.config.convergence.delta = 0;
  EXPECT_NO_THROW(measure.validate());

  // The CLI surface: the flags reach the same check.
  auto flags = StudySpec::flag_spec();
  flags["suite"] = "bs";
  flags["mode"] = "orig";
  flags["min-runs"] = "5000";
  flags["max-runs"] = "100";
  EXPECT_THROW(StudySpec::from_flags(flags).validate(), std::invalid_argument);
}

// The acceptance pin: the declarative surface must produce exactly the
// numbers of the direct Analyzer call it wraps (`mbcr analyze --suite bs
// --mode pub_tac` == Analyzer::analyze_pubbed).
TEST(RunStudy, PubTacMatchesDirectAnalyzerCall) {
  StudySpec spec = fast_spec("bs", StudyMode::kPubTac);
  spec.config.convergence.max_runs = 20000;
  spec.config.tac.max_runs_cap = 50000;
  const StudyResult result = run_study(spec);

  const auto b = suite::make_bs();
  const Analyzer analyzer(spec.config);
  const PathAnalysis direct = analyzer.analyze_pubbed(b.program,
                                                      b.default_input);

  ASSERT_EQ(result.paths.size(), 1u);
  const PathAnalysis& via_study = result.paths.front();
  EXPECT_EQ(result.program_name, "bs.pub");
  EXPECT_EQ(via_study.input_label, direct.input_label);
  EXPECT_EQ(via_study.trace_accesses, direct.trace_accesses);
  EXPECT_DOUBLE_EQ(via_study.baseline_cycles, direct.baseline_cycles);
  EXPECT_EQ(via_study.r_mbpta, direct.r_mbpta);
  EXPECT_EQ(via_study.r_tac, direct.r_tac);
  EXPECT_EQ(via_study.r_total, direct.r_total);
  EXPECT_DOUBLE_EQ(via_study.pwcet.at(1e-12), direct.pwcet.at(1e-12));
  EXPECT_DOUBLE_EQ(via_study.pwcet.at(1e-6), direct.pwcet.at(1e-6));
  EXPECT_GE(result.runs_executed,
            direct.r_total + spec.config.baseline_probe_runs);
}

TEST(RunStudy, OrigModeSkipsTac) {
  const StudyResult result = run_study(fast_spec("bs", StudyMode::kOrig));
  ASSERT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.program_name, "bs");
  EXPECT_EQ(result.paths[0].r_tac, 0u);
}

TEST(RunStudy, MultipathCoversAllPathsAndNormalizesSelection) {
  // inputs left at kDefault: multipath normalizes to kAllPaths.
  const StudyResult result =
      run_study(fast_spec("bs", StudyMode::kMultipath));
  EXPECT_EQ(result.spec.inputs, InputSelection::kAllPaths);
  ASSERT_EQ(result.paths.size(), 8u);  // bs's eight max-iteration paths
  const double combined = result.pwcet_at(1e-12);
  for (const PathAnalysis& pa : result.paths) {
    EXPECT_LE(combined, pa.pwcet.at(1e-12));
  }
  EXPECT_LT(result.tightest_path(1e-12), result.paths.size());
}

// Corollary 2 work units are independent: where the path loop schedules
// them cannot change a byte. A serial pub_tac study over every input, the
// same study with its paths on the whole pool, and the multipath study
// all write one document (apart from the threads and mode they name), and
// each path is exactly the direct per-path analysis.
TEST(RunStudy, PathSchedulingDoesNotChangeTheDocument) {
  StudySpec spec = fast_spec("bs", StudyMode::kPubTac);
  spec.inputs = InputSelection::kAllPaths;
  spec.config.campaign.threads = 1;
  StudyResult serial = run_study(spec);
  spec.config.campaign.threads = 0;
  const StudyResult pooled = run_study(spec);
  spec.mode = StudyMode::kMultipath;
  StudyResult multipath = run_study(spec);

  serial.spec.config.campaign.threads = 0;
  multipath.spec.mode = StudyMode::kPubTac;
  EXPECT_EQ(serial.to_json().dump(2), pooled.to_json().dump(2));
  EXPECT_EQ(multipath.to_json().dump(2), pooled.to_json().dump(2));

  const auto b = suite::make_bs();
  ASSERT_EQ(pooled.paths.size(), b.path_inputs.size());
  const Analyzer analyzer(spec.config);
  for (std::size_t i = 0; i < 3; ++i) {
    const PathAnalysis direct =
        analyzer.analyze_pubbed(b.program, b.path_inputs[i]);
    const PathAnalysis& via_study = pooled.paths[i];
    EXPECT_EQ(via_study.input_label, b.path_inputs[i].label);
    EXPECT_EQ(via_study.r_mbpta, direct.r_mbpta);
    EXPECT_EQ(via_study.r_tac, direct.r_tac);
    EXPECT_EQ(via_study.r_total, direct.r_total);
    EXPECT_DOUBLE_EQ(via_study.pwcet.at(1e-12), direct.pwcet.at(1e-12));
  }

  // Corollary 2 over the paths: the lowest pWCET, and the path giving it.
  const std::size_t tightest = pooled.tightest_path(1e-12);
  ASSERT_LT(tightest, pooled.paths.size());
  EXPECT_GT(pooled.pwcet_at(1e-12), 0.0);
  EXPECT_EQ(pooled.pwcet_at(1e-12), pooled.paths[tightest].pwcet.at(1e-12));
  for (const PathAnalysis& pa : pooled.paths) {
    EXPECT_LE(pooled.pwcet_at(1e-12), pa.pwcet.at(1e-12));
  }
}

// `--threads 1` runs the whole study, its path loop included, on the
// calling thread: no pool worker picks up any of its work.
TEST(RunStudy, ThreadsOneKeepsEveryPathOnTheCallingThread) {
  struct MetricsOn {
    MetricsOn() { obs::set_enabled(true); }
    ~MetricsOn() { obs::set_enabled(false); }
  } metrics_on;
  StudySpec spec = fast_spec("bs", StudyMode::kMultipath);
  spec.config.convergence.max_runs = 2000;
  spec.config.tac.max_runs_cap = 2000;
  spec.config.campaign.threads = 1;
  // An earlier pooled study may leave helpers it never needed in the
  // queue. A worker that wakes late and takes one finds its chunks all
  // claimed, and counts no task.
  const obs::CounterSnapshot before = obs::snapshot_counters();
  const StudyResult result = run_study(spec);
  ASSERT_EQ(result.paths.size(), 8u);
  std::uint64_t pool_tasks = 0;
  for (const auto& [name, growth] :
       obs::snapshot_counters().delta_since(before)) {
    if (name == "pool.tasks") pool_tasks = growth;
  }
  EXPECT_EQ(pool_tasks, 0u);
}

TEST(RunStudy, LabelSelectionAnalyzesExactlyThatPath) {
  const auto b = suite::make_bs();
  StudySpec spec = fast_spec("bs", StudyMode::kMeasure);
  spec.measure_runs = 50;
  spec.inputs = InputSelection::kLabel;
  spec.input_label = b.path_inputs[2].label;
  const StudyResult result = run_study(spec);
  ASSERT_EQ(result.samples.size(), 1u);
  EXPECT_EQ(result.samples[0].input_label, b.path_inputs[2].label);
  EXPECT_EQ(result.samples[0].times.size(), 50u);
  EXPECT_EQ(result.runs_executed, 50u);

  spec.input_label = "no-such-path";
  EXPECT_THROW(run_study(spec), std::invalid_argument);
}

TEST(RunStudy, MeasureMatchesAnalyzerMeasure) {
  StudySpec spec = fast_spec("edn", StudyMode::kMeasure);
  spec.measure_runs = 64;
  const StudyResult result = run_study(spec);
  const auto b = suite::make_edn();
  const Analyzer analyzer(spec.config);
  ASSERT_EQ(result.samples.size(), 1u);
  EXPECT_EQ(result.samples[0].times,
            analyzer.measure(b.program, b.default_input, 64));
}

TEST(RunStudy, MeasurePubMeasuresThePubbedProgram) {
  StudySpec spec = fast_spec("bs", StudyMode::kMeasure);
  spec.measure_runs = 32;
  spec.measure_pub = true;
  const StudyResult result = run_study(spec);
  EXPECT_EQ(result.program_name, "bs.pub");
}

TEST(RunStudy, CampaignLargerThanAnyVectorIsAUsageErrorNamingTheFlag) {
  // 2e18 runs exceed std::vector's max_size, so the sample cannot even be
  // requested; the study fails closed, naming the path and the flag.
  StudySpec spec = fast_spec("bs", StudyMode::kMeasure);
  spec.measure_runs = 2'000'000'000'000'000'000;
  try {
    run_study(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("path 'v1'"), std::string::npos) << what;
    EXPECT_NE(what.find("2000000000000000000 runs"), std::string::npos)
        << what;
    EXPECT_NE(what.find("--runs"), std::string::npos) << what;
  }
}

TEST(RunStudy, RandprogSeedIsAValidProgramSource) {
  StudySpec spec;
  spec.randprog_seed = 7;
  spec.mode = StudyMode::kMeasure;
  spec.measure_runs = 40;
  const StudyResult r1 = run_study(spec);
  ASSERT_EQ(r1.samples.size(), 1u);
  EXPECT_EQ(r1.samples[0].times.size(), 40u);
  // Same seed, same program, same sample.
  const StudyResult r2 = run_study(spec);
  EXPECT_EQ(r1.program_name, r2.program_name);
  EXPECT_EQ(r1.samples[0].times, r2.samples[0].times);
}

TEST(StudyResult, JsonRoundTrips) {
  StudySpec spec = fast_spec("bs", StudyMode::kPubTac);
  spec.config.convergence.max_runs = 2000;
  spec.config.tac.max_runs_cap = 2000;
  spec.curve_max_exp = 12;
  const StudyResult result = run_study(spec);

  std::ostringstream ss;
  result.write_json(ss);
  const json::Value doc = json::parse(ss.str());

  EXPECT_EQ(doc.at("schema").as_string(), "mbcr-study-v6");
  // Observability off: the optional accounting/metrics blocks must be
  // absent so default documents stay byte-identical across builds.
  EXPECT_EQ(doc.find("accounting"), nullptr);
  EXPECT_EQ(doc.find("metrics"), nullptr);
  EXPECT_EQ(doc.at("spec").at("executor").as_string(), "vm");
  EXPECT_EQ(doc.at("program").as_string(), "bs.pub");
  EXPECT_EQ(doc.at("spec").at("mode").as_string(), "pub_tac");
  EXPECT_EQ(doc.at("spec").at("suite").as_string(), "bs");
  EXPECT_DOUBLE_EQ(doc.at("spec").at("pwcet_probability").as_number(), 1e-12);
  // Seeds are 64-bit: serialized as decimal strings, not lossy doubles.
  EXPECT_EQ(doc.at("spec").at("campaign").at("master_seed").as_string(),
            "42");
  EXPECT_EQ(static_cast<std::size_t>(doc.at("runs_executed").as_number()),
            result.runs_executed);

  const json::Array& paths = doc.at("paths").as_array();
  ASSERT_EQ(paths.size(), 1u);
  const json::Value& p = paths[0];
  EXPECT_EQ(p.at("input").as_string(), result.paths[0].input_label);
  EXPECT_DOUBLE_EQ(p.at("r_mbpta").as_number(), result.paths[0].r_mbpta);
  EXPECT_DOUBLE_EQ(p.at("r_tac").as_number(), result.paths[0].r_tac);
  EXPECT_DOUBLE_EQ(p.at("pwcet").at("value").as_number(),
                   result.paths[0].pwcet.at(1e-12));
  // The emitted curve sits on the log grid: 3 mantissas per decade.
  EXPECT_EQ(p.at("pwcet").at("curve").as_array().size(),
            static_cast<std::size_t>(3 * spec.curve_max_exp));
  EXPECT_TRUE(p.at("tac").is_object());  // TAC ran

  // A saved document pretty-prints (`mbcr report`).
  std::ostringstream report;
  print_study_json(report, doc);
  EXPECT_NE(report.str().find("bs.pub"), std::string::npos);
  EXPECT_NE(report.str().find("R_total"), std::string::npos);

  // And serialization is a fixed point.
  EXPECT_EQ(json::parse(doc.dump(2)).dump(2), doc.dump(2));
}

TEST(StudyResult, MeasureJsonCarriesSamples) {
  StudySpec spec = fast_spec("bs", StudyMode::kMeasure);
  spec.measure_runs = 25;
  const StudyResult result = run_study(spec);
  std::ostringstream ss;
  result.write_json(ss);
  const json::Value doc = json::parse(ss.str());
  const json::Array& samples = doc.at("samples").as_array();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].at("runs").as_number(), 25.0);
  EXPECT_EQ(samples[0].at("times").as_array().size(), 25u);
  EXPECT_DOUBLE_EQ(samples[0].at("times").as_array()[0].as_number(),
                   result.samples[0].times[0]);
}

TEST(StudyResult, CsvEmitters) {
  StudySpec spec = fast_spec("bs", StudyMode::kPub);
  spec.config.convergence.max_runs = 1000;
  const StudyResult analysis = run_study(spec);
  std::ostringstream csv;
  analysis.write_csv(csv);
  EXPECT_NE(csv.str().find("program,input,trace_accesses"),
            std::string::npos);
  EXPECT_NE(csv.str().find("bs.pub,v1,"), std::string::npos);

  StudySpec mspec = fast_spec("bs", StudyMode::kMeasure);
  mspec.measure_runs = 3;
  std::ostringstream mcsv;
  run_study(mspec).write_csv(mcsv);
  EXPECT_NE(mcsv.str().find("program,input,run,cycles"), std::string::npos);
  EXPECT_NE(mcsv.str().find("bs,v1,2,"), std::string::npos);
}

TEST(StudyResult, PrintStudySummarizes) {
  StudySpec spec = fast_spec("bs", StudyMode::kPub);
  spec.config.convergence.max_runs = 1000;
  const StudyResult result = run_study(spec);
  std::ostringstream ss;
  print_study(ss, result);
  EXPECT_NE(ss.str().find("mode=pub"), std::string::npos);
  EXPECT_NE(ss.str().find("platform runs executed"), std::string::npos);
}

TEST(PrintStudyJson, RejectsForeignDocuments) {
  std::ostringstream ss;
  EXPECT_THROW(print_study_json(ss, json::parse("{\"schema\": \"other\"}")),
               std::runtime_error);
}

}  // namespace
}  // namespace mbcr::core
