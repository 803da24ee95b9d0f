// End-to-end CLI observability pins, run against the real `mbcr` binary
// (path injected by CMake as MBCR_MBCR_BINARY; the obs_tests target
// depends on mbcr_cli so the binary always exists):
//
//   - stdout purity: with --json -, --progress and --metrics-json FILE all
//     active, stdout is exactly one parseable JSON document — progress and
//     "[x written to ...]" diagnostics live on stderr only.
//   - the emitted metrics/trace files are valid JSON with the promised
//     schema/phases.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace mbcr {
namespace {

#if defined(__unix__) && defined(MBCR_MBCR_BINARY)

struct CommandResult {
  int exit_code = -1;
  std::string out;
};

/// Runs `cmd` under /bin/sh, capturing stdout (callers route stderr).
CommandResult run_command(const std::string& cmd) {
  CommandResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.out.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string temp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

json::Value parse_file(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return json::parse(buffer.str());
}

TEST(CliObs, AnalyzeStdoutIsASingleJsonDocumentUnderFullInstrumentation) {
  const std::string metrics_path = temp_path("mbcr_cli_obs_metrics.json");
  const std::string trace_path = temp_path("mbcr_cli_obs_trace.json");
  const std::string cmd = std::string(MBCR_MBCR_BINARY) +
                          " analyze --suite bs --mode pub_tac" +
                          " --max-runs 2000 --tac-cap 2000" +
                          " --json - --progress true" +
                          " --metrics-json " + metrics_path +
                          " --trace-json " + trace_path + " 2>/dev/null";
  const CommandResult result = run_command(cmd);
  ASSERT_EQ(result.exit_code, 0) << cmd;

  // json::parse accepts exactly one document (trailing whitespace only),
  // so this line IS the stdout-purity pin: any stray progress line,
  // diagnostic, or second document on stdout fails the parse.
  const json::Value doc = json::parse(result.out);
  EXPECT_EQ(doc.at("schema").as_string(), "mbcr-study-v6");

  // The instrumented run must also surface its own cost: the optional v5
  // blocks are present when collection was armed.
  ASSERT_NE(doc.find("accounting"), nullptr);
  ASSERT_NE(doc.find("metrics"), nullptr);

  const json::Value metrics = parse_file(metrics_path);
  EXPECT_EQ(metrics.at("schema").as_string(), "mbcr-metrics-v1");
  const json::Value trace = parse_file(trace_path);
  const json::Array& events = trace.at("traceEvents").as_array();
  EXPECT_NE(metrics.at("counters").find("campaign.runs"), nullptr);
  EXPECT_NE(metrics.at("counters").find("convergence.samples"), nullptr);
  EXPECT_NE(metrics.at("counters").find("replay.single_level.runs"),
            nullptr);
  // bs has 12 lines in the paper's 64-set L1: some runs place every line
  // alone (nothing is simulated), the others do not.
  const double runs =
      metrics.at("counters").at("replay.single_level.runs").as_number();
  const double conflict_free =
      metrics.at("counters")
          .at("replay.single_level.conflict_free_runs")
          .as_number();
  EXPECT_GT(conflict_free, 0.0);
  EXPECT_LT(conflict_free, runs);
  EXPECT_GT(events.size(), 1u);
  bool saw_study = false;
  bool saw_campaign = false;
  for (const json::Value& ev : events) {
    const json::Value* name = ev.find("name");
    if (name == nullptr) continue;
    saw_study |= name->as_string() == "study";
    saw_campaign |= name->as_string() == "campaign";
  }
  EXPECT_TRUE(saw_study);
  EXPECT_TRUE(saw_campaign);

  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(CliObs, MeasureCsvStdoutStaysMachineReadableWithProgressOn) {
  const std::string cmd = std::string(MBCR_MBCR_BINARY) +
                          " measure --suite bs --runs 100 --csv -" +
                          " --progress true 2>/dev/null";
  const CommandResult result = run_command(cmd);
  ASSERT_EQ(result.exit_code, 0) << cmd;
  // First line is the CSV header and nothing else precedes it.
  EXPECT_EQ(result.out.rfind("program,input,run,cycles\n", 0), 0u)
      << "stdout does not start with the CSV header:\n"
      << result.out.substr(0, 200);
}

TEST(CliObs, TwoLevelReplayCountsTheEntriesItSimulates) {
  // Behind an L2, a run replays only the accesses of L1 lines that share a
  // set plus every other line's first access. crc's lines are mostly alone
  // in the paper's 64-set L1s, so the runs simulate some entries, never
  // all of them.
  for (const char* policy : {"random", "lru"}) {
    const std::string metrics_path = temp_path("mbcr_cli_obs_l2.json");
    const std::string cmd =
        std::string(MBCR_MBCR_BINARY) +
        " analyze --suite crc --mode measure --runs 2000" +
        " --l2-sets 256 --l2-ways 8 --l2-policy " + policy +
        " --json /dev/null --metrics-json " + metrics_path + " 2>/dev/null";
    const CommandResult result = run_command(cmd);
    ASSERT_EQ(result.exit_code, 0) << cmd;
    const json::Value metrics = parse_file(metrics_path);
    const json::Value& counters = metrics.at("counters");
    const std::string flavor = std::string("replay.l2_") + policy;
    const double runs = counters.at(flavor + ".runs").as_number();
    const double entries = counters.at(flavor + ".entries").as_number();
    const double simulated =
        counters.at(flavor + ".simulated_entries").as_number();
    EXPECT_GE(runs, 2000.0) << policy;
    EXPECT_GT(simulated, 0.0) << policy;
    EXPECT_LT(simulated, entries) << policy;
    std::remove(metrics_path.c_str());
  }
}

TEST(CliObs, CampaignTooLargeToAllocateIsAUsageErrorNamingTheFlags) {
  // ASan and TSan reserve far more address space than the limit below
  // before main runs, so the command could not even start there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes need more than 1 GB of address space";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer runtimes need more than 1 GB of address space";
#endif
#endif
  // TAC asks for about 1.8e8 runs (1.4 GB of samples) under a 1 GB
  // address space.
  const std::string cmd =
      "sh -c 'ulimit -v 1000000; exec " + std::string(MBCR_MBCR_BINARY) +
      " analyze --suite bs --input v1 --tac-target 1e-300" +
      " --tac-cap 1000000000' 2>&1 >/dev/null";
  const CommandResult result = run_command(cmd);
  EXPECT_EQ(result.exit_code, 2) << cmd << "\n" << result.out;
  EXPECT_NE(result.out.find("--tac-cap"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("path 'v1': cannot allocate a campaign of "),
            std::string::npos)
      << result.out;
}

#else

TEST(CliObs, SkippedWithoutPosixPopen) { GTEST_SKIP(); }

#endif

}  // namespace
}  // namespace mbcr
