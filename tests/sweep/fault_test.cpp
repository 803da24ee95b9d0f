// The MBCR_FAULT sweep-worker faults, in fault-injection builds
// (-DMBCR_FAULT_INJECTION=ON): each armed malfunction drives the
// supervisor's matching recovery path end to end against real
// `mbcr worker` processes — crash -> retry, truncate/badsum ->
// verification rejects exit-0 output, hang -> timeout SIGKILL.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/study.hpp"
#include "sweep/journal.hpp"
#include "sweep/supervisor.hpp"
#include "util/clock.hpp"

namespace mbcr::sweep {
namespace {

#if defined(MBCR_FAULT_INJECTION) && defined(__unix__) && \
    defined(MBCR_MBCR_BINARY)

/// Arms MBCR_FAULT for the `mbcr worker` processes a test spawns.
struct FaultEnv {
  explicit FaultEnv(const char* value) { ::setenv("MBCR_FAULT", value, 1); }
  ~FaultEnv() { ::unsetenv("MBCR_FAULT"); }
};


SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.base.suite = "bs";
  spec.base.mode = core::StudyMode::kMeasure;
  spec.base.measure_runs = 20;
  return spec;
}

std::string fresh_dir(const char* name) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
  std::remove((dir + "/manifest.json").c_str());
  std::remove(shard_path(dir, 0).c_str());
  ensure_journal_dirs(dir);
  return dir;
}

SupervisorConfig worker_config(const std::string& dir, util::Clock* clock) {
  SupervisorConfig config;
  config.dir = dir;
  config.clock = clock;
  config.worker_command = {MBCR_MBCR_BINARY, "worker"};
  return config;
}

TEST(SweepFault, CrashOnFirstAttemptIsRetriedToSuccess) {
  const FaultEnv env("crash@0#0");  // inherited by the spawned workers
  const std::string dir = fresh_dir("mbcr_fault_crash");
  util::FakeClock clock;
  SupervisorConfig config = worker_config(dir, &clock);
  config.retries = 2;

  const SweepOutcome out = run_sweep(tiny_spec(), config);
  EXPECT_TRUE(out.complete());
  ASSERT_EQ(out.attempts.size(), 2u);
  EXPECT_EQ(out.attempts[0].exit_code, 1);
  EXPECT_FALSE(out.attempts[0].ok());
  EXPECT_TRUE(out.attempts[1].ok());
}

TEST(SweepFault, TruncatedOutputIsRejectedDespiteExitZero) {
  const FaultEnv env("truncate@0");  // every attempt
  const std::string dir = fresh_dir("mbcr_fault_truncate");
  util::FakeClock clock;
  SupervisorConfig config = worker_config(dir, &clock);
  config.retries = 1;

  const SweepOutcome out = run_sweep(tiny_spec(), config);
  EXPECT_FALSE(out.complete());
  ASSERT_EQ(out.quarantined.size(), 1u);
  ASSERT_EQ(out.attempts.size(), 2u);
  for (const AttemptRecord& a : out.attempts) {
    EXPECT_EQ(a.exit_code, 0);  // the worker *claimed* success
    EXPECT_FALSE(a.ok());
  }
}

TEST(SweepFault, LyingChecksumIsRejectedDespiteExitZero) {
  const FaultEnv env("badsum@0");
  const std::string dir = fresh_dir("mbcr_fault_badsum");
  util::FakeClock clock;
  SupervisorConfig config = worker_config(dir, &clock);
  config.retries = 0;

  const SweepOutcome out = run_sweep(tiny_spec(), config);
  ASSERT_EQ(out.quarantined.size(), 1u);
  ASSERT_EQ(out.attempts.size(), 1u);
  EXPECT_EQ(out.attempts[0].exit_code, 0);
  EXPECT_NE(out.attempts[0].failure.find("checksum"), std::string::npos);
}

TEST(SweepFault, HangingWorkerIsKilledByTheTimeout) {
  const FaultEnv env("hang@0");
  const std::string dir = fresh_dir("mbcr_fault_hang");
  util::FakeClock clock;
  SupervisorConfig config = worker_config(dir, &clock);
  config.retries = 0;
  config.timeout_s = 0.05;  // virtual; the hang sleeps real time

  const SweepOutcome out = run_sweep(tiny_spec(), config);
  ASSERT_EQ(out.quarantined.size(), 1u);
  ASSERT_EQ(out.attempts.size(), 1u);
  EXPECT_TRUE(out.attempts[0].timed_out);
  EXPECT_EQ(out.attempts[0].term_signal, 9);
}

#endif  // MBCR_FAULT_INJECTION && __unix__ && MBCR_MBCR_BINARY

}  // namespace
}  // namespace mbcr::sweep
