// Progress-reporting tests, pinning the stream contract: every progress
// line goes to stderr, never stdout (stdout is reserved for machine
// output like `--json -`), and a disabled gate prints nothing at all.
#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>

#include "obs/progress.hpp"

namespace mbcr::obs {
namespace {

/// Captures std::cout and std::cerr for the scope of one test.
struct StreamCapture {
  StreamCapture()
      : old_cout(std::cout.rdbuf(cout.rdbuf())),
        old_cerr(std::cerr.rdbuf(cerr.rdbuf())) {}
  ~StreamCapture() {
    std::cout.rdbuf(old_cout);
    std::cerr.rdbuf(old_cerr);
  }
  std::ostringstream cout;
  std::ostringstream cerr;
  std::streambuf* old_cout;
  std::streambuf* old_cerr;
};

struct ProgressScope {
  explicit ProgressScope(bool on) { set_progress_enabled(on); }
  ~ProgressScope() { set_progress_enabled(false); }
};

TEST(Progress, DisabledGatePrintsNothing) {
  ProgressScope scope(false);
  StreamCapture capture;
  progress_tick("campaign", 10, 100, "runs");
  progress_done("campaign", 100, "runs");
  EXPECT_EQ(capture.cout.str(), "");
  EXPECT_EQ(capture.cerr.str(), "");
}

TEST(Progress, LinesGoToStderrNeverStdout) {
  ProgressScope scope(true);
  StreamCapture capture;
  // progress_done always prints (ticks are rate-limited; a test must not
  // depend on the 4 Hz window being open).
  progress_done("campaign", 12345, "runs");
  EXPECT_EQ(capture.cout.str(), "") << "progress leaked onto stdout";
  const std::string err = capture.cerr.str();
  EXPECT_NE(err.find("[mbcr] campaign:"), std::string::npos) << err;
  EXPECT_NE(err.find("12345 runs"), std::string::npos) << err;
  EXPECT_EQ(err.back(), '\n') << "lines must be newline-terminated";
}

TEST(Progress, TickRendersTotalsPercentAndExtra) {
  ProgressScope scope(true);
  StreamCapture capture;
  // Prime the rate limiter window with a done line, then tick: the tick
  // itself is rate-limited, so only assert when it printed.
  progress_tick("converge", 50, 200, "samples", "refit 3");
  const std::string err = capture.cerr.str();
  if (!err.empty()) {
    EXPECT_NE(err.find("50/200 samples"), std::string::npos) << err;
    EXPECT_NE(err.find("(25%)"), std::string::npos) << err;
    EXPECT_NE(err.find("refit 3"), std::string::npos) << err;
    EXPECT_EQ(capture.cout.str(), "");
  }
}

}  // namespace
}  // namespace mbcr::obs
