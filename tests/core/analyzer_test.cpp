#include "core/analyzer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/report.hpp"
#include "ir/interp.hpp"
#include "suite/malardalen.hpp"
#include "util/rng.hpp"

namespace mbcr::core {
namespace {

AnalysisConfig fast_config() {
  AnalysisConfig cfg;
  cfg.convergence.max_runs = 20000;
  cfg.tac.max_runs_cap = 50000;
  return cfg;
}

TEST(Analyzer, OriginalAnalysisProducesSanePwcet) {
  const auto b = suite::make_bs();
  const Analyzer analyzer(fast_config());
  const PathAnalysis res = analyzer.analyze_original(b.program,
                                                     b.default_input);
  EXPECT_EQ(res.program_name, "bs");
  EXPECT_EQ(res.r_tac, 0u);
  EXPECT_GE(res.r_mbpta, analyzer.config().convergence.min_runs);
  EXPECT_EQ(res.r_total, res.r_mbpta);
  EXPECT_GT(res.baseline_cycles, 0.0);
  // pWCET at deep probability dominates the observed body.
  EXPECT_GT(res.pwcet.at(1e-12), res.baseline_cycles);
  // The reported trace length counts every access, folded hits included.
  EXPECT_EQ(res.trace_accesses,
            ir::lower_and_execute(b.program, b.default_input).trace.size());
}

TEST(Analyzer, PubbedAnalysisRunsTacAndExtendsCampaign) {
  const auto b = suite::make_bs();
  const Analyzer analyzer(fast_config());
  const PathAnalysis res =
      analyzer.analyze_pubbed(b.program, b.path_inputs[4]);  // v9
  EXPECT_EQ(res.program_name, "bs.pub");
  EXPECT_GE(res.r_tac, 1u);
  EXPECT_EQ(res.r_total, std::max(res.r_mbpta, res.r_tac));
  EXPECT_GE(res.pwcet.sample_size(), res.r_total);
}

TEST(Analyzer, PubbedWithoutTacSkipsIt) {
  const auto b = suite::make_bs();
  const Analyzer analyzer(fast_config());
  const PathAnalysis res =
      analyzer.analyze_pubbed(b.program, b.default_input, /*with_tac=*/false);
  EXPECT_EQ(res.r_tac, 0u);
}

TEST(Analyzer, PubbedPwcetUpperBoundsAllOriginalPathMaxima) {
  // Corollary 1 at test scale: pWCET of one pubbed path >= observed max of
  // every original path.
  const auto b = suite::make_bs();
  const Analyzer analyzer(fast_config());
  const PathAnalysis pubbed =
      analyzer.analyze_pubbed(b.program, b.path_inputs[0]);
  const double pwcet = pubbed.pwcet.at(1e-6);
  for (const auto& in : b.path_inputs) {
    const auto times = analyzer.measure(b.program, in, 3000);
    const double observed_max =
        *std::max_element(times.begin(), times.end());
    EXPECT_GE(pwcet, observed_max) << in.label;
  }
}

TEST(Analyzer, MeasureIsDeterministic) {
  const auto b = suite::make_edn();
  const Analyzer analyzer(fast_config());
  EXPECT_EQ(analyzer.measure(b.program, b.default_input, 50),
            analyzer.measure(b.program, b.default_input, 50));
}

TEST(Analyzer, MeasureReplaysAtTheConfiguredLineSize) {
  // With 64-byte lines the compact trace must be resolved at 64 bytes too:
  // every campaign run equals the reference model on the full trace.
  const auto b = suite::make_crc();
  AnalysisConfig cfg = fast_config();
  cfg.machine.il1 = CacheConfig{32, 2, 64};
  cfg.machine.dl1 = CacheConfig{32, 2, 64};
  const Analyzer analyzer(cfg);
  const std::vector<double> times =
      analyzer.measure(b.program, b.default_input, 5);
  const MemTrace trace =
      ir::lower_and_execute(b.program, b.default_input).trace;
  const platform::Machine machine(cfg.machine);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i],
              static_cast<double>(machine.run_once_reference(
                  trace, mix64(i, cfg.campaign.master_seed))))
        << "run " << i;
  }
}

TEST(Analyzer, AnalysisIsReproducible) {
  const auto b = suite::make_fir();
  const Analyzer analyzer(fast_config());
  const PathAnalysis r1 = analyzer.analyze_original(b.program,
                                                    b.default_input);
  const PathAnalysis r2 = analyzer.analyze_original(b.program,
                                                    b.default_input);
  EXPECT_EQ(r1.r_mbpta, r2.r_mbpta);
  EXPECT_DOUBLE_EQ(r1.pwcet.at(1e-12), r2.pwcet.at(1e-12));
}

TEST(Report, PrintsAnalysisSummary) {
  const auto b = suite::make_bs();
  const Analyzer analyzer(fast_config());
  const PathAnalysis res = analyzer.analyze_pubbed(b.program,
                                                   b.default_input);
  std::ostringstream ss;
  print_path_analysis(ss, res);
  EXPECT_NE(ss.str().find("bs.pub"), std::string::npos);
  EXPECT_NE(ss.str().find("R_tac"), std::string::npos);
  std::ostringstream curve;
  print_pwcet_curve(curve, res.pwcet, 12);
  EXPECT_NE(curve.str().find("exceedance_prob"), std::string::npos);
}

}  // namespace
}  // namespace mbcr::core
