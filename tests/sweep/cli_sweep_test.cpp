// End-to-end pins for `mbcr sweep` against the real binary (path
// injected as MBCR_MBCR_BINARY):
//
//   - the merge contract: a sharded sweep's --json output is
//     byte-identical to the unsharded run and to plain `mbcr analyze`,
//     including sliced measure campaigns;
//   - crash-safe resume: damage the newest shard file, --resume re-runs
//     exactly the damaged shard and reproduces the identical document;
//   - fail-closed loaders: torn --spec files and fuzz repros exit 2;
//   - graceful interruption: SIGINT/SIGTERM mid-run exit 130/143 (fuzz,
//     sweep, and TAC's conflict-group enumeration).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sweep/journal.hpp"
#include "util/atomic_file.hpp"
#include "util/clock.hpp"
#include "util/subprocess.hpp"

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

std::string read_all(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

const std::string kBin = MBCR_MBCR_BINARY;

TEST(CliSweep, SinglePointShardedSweepMatchesAnalyzeByteForByte) {
  const std::string direct = temp_path("mbcr_cs_direct.json");
  const std::string swept = temp_path("mbcr_cs_swept.json");
  const std::string dir = temp_path("mbcr_cs_j1");
  ASSERT_EQ(run_command("rm -rf " + dir).exit_code, 0);

  const std::string base =
      " --suite bs --mode measure --runs 120 ";
  ASSERT_EQ(run_command(kBin + " measure --suite bs --runs 120 --json " +
                        direct + " 2>/dev/null")
                .exit_code,
            0);
  ASSERT_EQ(run_command(kBin + " sweep" + base +
                        "--slice-runs 40 --shards 3 --dir " + dir +
                        " --json " + swept + " 2>/dev/null >/dev/null")
                .exit_code,
            0);
  EXPECT_EQ(read_all(direct), read_all(swept));
}

TEST(CliSweep, MultiPointMergeIsIndependentOfShardCount) {
  const std::string a = temp_path("mbcr_cs_multi_a.json");
  const std::string b = temp_path("mbcr_cs_multi_b.json");
  const std::string dir_a = temp_path("mbcr_cs_j2a");
  const std::string dir_b = temp_path("mbcr_cs_j2b");
  ASSERT_EQ(run_command("rm -rf " + dir_a + " " + dir_b).exit_code, 0);

  const std::string grid =
      " --mode measure --runs 60 --suites bs,crc --seeds 1,2 ";
  ASSERT_EQ(run_command(kBin + " sweep" + grid + "--shards 1 --dir " +
                        dir_a + " --json " + a + " 2>/dev/null >/dev/null")
                .exit_code,
            0);
  ASSERT_EQ(run_command(kBin + " sweep" + grid + "--shards 4 --dir " +
                        dir_b + " --json " + b + " 2>/dev/null >/dev/null")
                .exit_code,
            0);
  EXPECT_EQ(read_all(a), read_all(b));
}

TEST(CliSweep, ResumeRerunsExactlyTheDamagedShard) {
  const std::string out1 = temp_path("mbcr_cs_resume1.json");
  const std::string out2 = temp_path("mbcr_cs_resume2.json");
  const std::string dir = temp_path("mbcr_cs_j3");
  const std::string log = temp_path("mbcr_cs_resume.log");
  ASSERT_EQ(run_command("rm -rf " + dir).exit_code, 0);

  const std::string grid =
      " --mode measure --runs 60 --suites bs,crc --seeds 1,2 --shards 4 ";
  ASSERT_EQ(run_command(kBin + " sweep" + grid + "--dir " + dir +
                        " --json " + out1 + " 2>/dev/null >/dev/null")
                .exit_code,
            0);

  // Tear the newest shard file the way a crash mid-write would (if the
  // writer were not atomic), and delete another outright.
  const std::string torn_path = sweep::shard_path(dir, 3);
  const std::string torn = read_all(torn_path).substr(0, 100);
  {
    std::ofstream f(torn_path, std::ios::trunc);
    f << torn;
  }
  std::remove(sweep::shard_path(dir, 1).c_str());

  const CommandResult resumed = run_command(
      kBin + " sweep --resume --dir " + dir + " --json " + out2 + " 2>" +
      log + " >/dev/null");
  ASSERT_EQ(resumed.exit_code, 0);
  EXPECT_EQ(read_all(out1), read_all(out2));

  // Exactly the two damaged shards were re-spawned; the intact ones were
  // skipped as already complete.
  const std::string stderr_text = read_all(log);
  EXPECT_NE(stderr_text.find("shard 0: already complete"),
            std::string::npos);
  EXPECT_NE(stderr_text.find("shard 2: already complete"),
            std::string::npos);
  EXPECT_NE(stderr_text.find("shard 1 attempt 0: spawned"),
            std::string::npos);
  EXPECT_NE(stderr_text.find("shard 3 attempt 0: spawned"),
            std::string::npos);
  EXPECT_EQ(stderr_text.find("shard 0 attempt"), std::string::npos);
  EXPECT_EQ(stderr_text.find("shard 2 attempt"), std::string::npos);
}

TEST(CliSweep, TornSpecAndReproFilesFailClosedWithExitTwo) {
  // A valid saved document, truncated mid-stream, must be a loud usage
  // error (exit 2) for every loader that accepts files.
  const std::string spec = temp_path("mbcr_cs_spec.json");
  ASSERT_EQ(run_command(kBin +
                        " measure --suite bs --runs 30 --json " + spec +
                        " 2>/dev/null >/dev/null")
                .exit_code,
            0);
  const std::string full = read_all(spec);
  const std::string torn = temp_path("mbcr_cs_spec_torn.json");
  util::write_file_atomic(torn, full.substr(0, full.size() / 3));

  EXPECT_EQ(run_command(kBin + " analyze --spec " + torn +
                        " 2>/dev/null >/dev/null")
                .exit_code,
            2);
  EXPECT_EQ(run_command(kBin + " analyze --spec " + torn +
                        "-no-such-file 2>/dev/null >/dev/null")
                .exit_code,
            2);
  EXPECT_EQ(run_command(kBin + " fuzz --replay " + torn +
                        " 2>/dev/null >/dev/null")
                .exit_code,
            2);
  // Bad axis values on the sweep surface take the same path.
  EXPECT_EQ(run_command(kBin + " sweep --geometries 64 --dir " +
                        temp_path("mbcr_cs_j4") +
                        " 2>/dev/null >/dev/null")
                .exit_code,
            2);
}

TEST(CliSweep, OutOfRangeIntegerFlagsExitTwoNamingTheFlag) {
  // A count its field cannot hold must not wrap: --retries 4294967296
  // would otherwise run with 0 retries, and 2^31 would read as a
  // negative int.
  const std::string dir = temp_path("mbcr_cs_range");
  for (const auto& [args, flag] :
       {std::pair<std::string, std::string>{
            " sweep --retries 4294967296 --dir " + dir, "--retries"},
        {" worker --dir " + dir + " --shard 0 --attempt 4294967296",
         "--attempt"},
        {" worker --dir " + dir + " --shard 0 --attempt 2147483648",
         "--attempt"}}) {
    const std::string err = temp_path("mbcr_cs_range.err");
    EXPECT_EQ(run_command(kBin + args + " >/dev/null 2>" + err).exit_code, 2)
        << args;
    EXPECT_NE(read_all(err).find("flag " + flag), std::string::npos) << args;
  }
}

/// Sends `sig` to a spawned CLI once it has had `delay_ms` to get going,
/// then returns its exit status (guarding against hangs). `exit_after_ns`,
/// when given, receives how long the child took to end once signalled.
util::ExitStatus interrupt_cli(const std::vector<std::string>& argv, int sig,
                               int delay_ms,
                               std::uint64_t* exit_after_ns = nullptr) {
  util::SystemClock& clock = util::SystemClock::instance();
  util::Child child = util::Child::spawn(argv);
  for (int waited = 0; waited < delay_ms; waited += 20) {
    clock.sleep_ns(20'000'000);
    if (child.poll().has_value()) break;  // finished before the signal
  }
  child.kill(sig);
  const std::uint64_t signalled = clock.now_ns();
  for (int waited = 0; waited < 20'000; waited += 50) {
    if (const auto status = child.poll(); status.has_value()) {
      if (exit_after_ns != nullptr) *exit_after_ns = clock.now_ns() - signalled;
      return *status;
    }
    clock.sleep_ns(50'000'000);
  }
  child.kill(SIGKILL);
  return child.wait();
}

TEST(CliSweep, FuzzInterruptedMidRunExits130) {
  // A 30s-budget fuzz run SIGINTed early must wind down gracefully with
  // the conventional code — not 1, not a signal death.
  const util::ExitStatus status =
      interrupt_cli({kBin, "fuzz", "--time-budget", "30"}, SIGINT, 400);
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.exit_code, 130);
}

TEST(CliSweep, TacInterruptedMidEnumerationExits143Promptly) {
  // An 8-way TAC analysis enumerates conflict groups for minutes; the
  // enumeration polls the shutdown flag once per candidate group, so a
  // SIGTERM must end it within 2 s.
  std::uint64_t exit_after_ns = 0;
  const util::ExitStatus status = interrupt_cli(
      {kBin, "tac", "--suite", "matmult", "--ways", "8", "--sets", "16"},
      SIGTERM, 1000, &exit_after_ns);
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.exit_code, 143);
  EXPECT_LT(exit_after_ns, 2'000'000'000u);
}

TEST(CliSweep, SweepInterruptedMidRunExits143AndResumeFinishes) {
  const std::string dir = temp_path("mbcr_cs_j5");
  const std::string out = temp_path("mbcr_cs_j5.json");
  ASSERT_EQ(run_command("rm -rf " + dir).exit_code, 0);

  // Big enough (~8s uninterrupted) that workers are mid-campaign when
  // SIGTERM lands; the campaign engine polls the shutdown flag between
  // chunk claims, so the whole process tree winds down promptly.
  const std::vector<std::string> argv = {
      kBin,     "sweep", "--suite",      "bs",      "--mode",
      "measure", "--runs", "40000000",    "--slice-runs", "5000000",
      "--shards", "4",     "--jobs",      "2",       "--dir", dir};
  const util::ExitStatus status = interrupt_cli(argv, SIGTERM, 500);
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.exit_code, 143);

  // The write-ahead manifest survives the interruption intact and still
  // names the original plan — which is exactly what --resume keys off.
  const sweep::Manifest manifest = sweep::load_manifest(dir);
  EXPECT_EQ(manifest.shards, 4u);
  EXPECT_EQ(manifest.points, 1u);
  ASSERT_EQ(run_command("rm -rf " + dir).exit_code, 0);
}

#endif  // __unix__ && MBCR_MBCR_BINARY

}  // namespace
}  // namespace mbcr
