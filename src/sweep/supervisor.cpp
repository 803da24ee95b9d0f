#include "sweep/supervisor.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/signal.hpp"
#include "util/subprocess.hpp"

namespace mbcr::sweep {

namespace {

constexpr int kSigTerm = 15;
constexpr int kSigKill = 9;

/// One scheduler pass every 2ms (virtual under a FakeClock).
constexpr std::uint64_t kPollNs = 2'000'000;

/// After a shutdown request, workers get this long to exit on SIGTERM
/// before the supervisor escalates to SIGKILL (a hung worker must not be
/// able to hold Ctrl-C hostage).
constexpr std::uint64_t kTermGraceNs = 2'000'000'000;

std::string describe_exit(const util::ExitStatus& status) {
  if (status.exited) {
    return "exit code " + std::to_string(status.exit_code);
  }
  return "killed by signal " + std::to_string(status.signal);
}

}  // namespace

std::uint64_t backoff_delay_ns(const std::string& sweep_id,
                               std::size_t shard, int attempt,
                               std::uint64_t base_ms, std::uint64_t max_ms) {
  // Exponential growth, capped: base << (attempt-1), attempt >= 1. The
  // shift is guarded so absurd retry counts saturate instead of
  // overflowing.
  std::uint64_t exp_ms = max_ms;
  const int shift = attempt > 0 ? attempt - 1 : 0;
  if (shift < 63 && (base_ms << shift) >> shift == base_ms) {
    exp_ms = std::min(max_ms, base_ms << shift);
  }
  // Jitter to [50%, 100%], seeded purely from (sweep id, shard, attempt):
  // retries of different shards desynchronize, and a test can predict the
  // exact schedule.
  Xoshiro256 rng(mix64(shard * 1000003ULL + static_cast<std::uint64_t>(attempt),
                       util::fnv1a64(sweep_id)));
  const double factor = 0.5 + 0.5 * rng.uniform01();
  return static_cast<std::uint64_t>(static_cast<double>(exp_ms) * 1e6 *
                                    factor);
}

SweepOutcome run_sweep(const SweepSpec& spec,
                       const SupervisorConfig& config) {
  if (!util::subprocess_supported()) {
    throw std::runtime_error(
        "sweep: subprocess support unavailable on this platform");
  }
  spec.validate();
  if (config.retries < 0) {
    throw std::invalid_argument("sweep retries must be >= 0");
  }
  util::Clock* clock =
      config.clock ? config.clock : &util::SystemClock::instance();
  obs::Span sweep_span("sweep");

  const std::vector<core::StudySpec> points = spec.expand();
  const std::vector<SweepUnit> units = expand_units(spec, points);

  SweepOutcome out;
  out.sweep_id = spec.id();
  std::size_t shards = config.shards;

  ensure_journal_dirs(config.dir);
  if (config.resume) {
    // The manifest is the write-ahead source of truth: the resumed run
    // must be the same sweep (id check) and keeps the original shard
    // plan, whatever --shards says now.
    const Manifest manifest = load_manifest(config.dir);
    if (manifest.sweep_id != out.sweep_id) {
      throw std::invalid_argument(
          "sweep --resume: journal " + config.dir + " belongs to sweep " +
          manifest.sweep_id + ", not " + out.sweep_id);
    }
    shards = manifest.shards;
  } else {
    if (shards == 0) throw std::invalid_argument("sweep needs >= 1 shard");
    Manifest manifest;
    manifest.sweep_id = out.sweep_id;
    manifest.spec = spec.to_json();
    manifest.shards = shards;
    manifest.units = units.size();
    manifest.points = points.size();
    write_manifest(config.dir, manifest);
  }
  out.shards = shards;
  assign_shards(units.size(), shards);  // validates the plan early

  if (obs::enabled()) {
    obs::counter("sweep.shards").add(shards);
  }

  struct Pending {
    std::size_t shard;
    int attempt;
    std::uint64_t ready_ns;
  };
  struct Running {
    util::Child child;
    std::size_t shard;
    int attempt;
    std::uint64_t start_ns;
  };
  std::vector<Pending> pending;
  std::vector<Running> running;

  for (std::size_t s = 0; s < shards; ++s) {
    if (config.resume &&
        load_shard_result(config.dir, out.sweep_id, s).has_value()) {
      out.skipped.push_back(s);
      if (config.log) {
        *config.log << "[sweep] shard " << s << ": already complete\n";
      }
      continue;
    }
    pending.push_back({s, 0, clock->now_ns()});
  }

  std::size_t jobs = config.jobs;
  if (jobs == 0) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    jobs = std::min<std::size_t>(std::max<std::size_t>(1, shards), hw);
  }
  const std::uint64_t timeout_ns =
      config.timeout_s > 0
          ? static_cast<std::uint64_t>(config.timeout_s * 1e9)
          : 0;

  const auto spawn = [&](const Pending& p) {
    std::vector<std::string> argv = config.worker_command;
    if (argv.empty()) {
      argv = {util::current_executable(config.argv0), "worker"};
    }
    argv.push_back("--dir");
    argv.push_back(config.dir);
    argv.push_back("--shard");
    argv.push_back(std::to_string(p.shard));
    argv.push_back("--attempt");
    argv.push_back(std::to_string(p.attempt));
    Running r;
    r.child = util::Child::spawn(
        argv, shard_log_path(config.dir, p.shard, p.attempt));
    r.shard = p.shard;
    r.attempt = p.attempt;
    r.start_ns = clock->now_ns();
    if (config.log) {
      *config.log << "[sweep] shard " << p.shard << " attempt " << p.attempt
                  << ": spawned pid " << r.child.pid() << "\n";
    }
    if (config.on_spawn) config.on_spawn(p.shard, p.attempt, r.child.pid());
    running.push_back(std::move(r));
  };

  const auto handle_failure = [&](AttemptRecord rec) {
    if (rec.attempt < config.retries) {
      rec.backoff_ns =
          backoff_delay_ns(out.sweep_id, rec.shard, rec.attempt + 1,
                           config.backoff_base_ms, config.backoff_max_ms);
      pending.push_back(
          {rec.shard, rec.attempt + 1, clock->now_ns() + rec.backoff_ns});
      if (obs::enabled()) obs::counter("sweep.retries").add(1);
      if (config.log) {
        *config.log << "[sweep] shard " << rec.shard << " attempt "
                    << rec.attempt << " FAILED (" << rec.failure
                    << "); retrying in " << rec.backoff_ns / 1'000'000
                    << "ms\n";
      }
    } else {
      out.quarantined.push_back(rec.shard);
      if (obs::enabled()) obs::counter("sweep.quarantined").add(1);
      if (config.log) {
        *config.log << "[sweep] shard " << rec.shard << " QUARANTINED after "
                    << rec.attempt + 1 << " attempt(s): " << rec.failure
                    << "\n";
      }
    }
    out.attempts.push_back(std::move(rec));
  };

  std::uint64_t interrupted_at_ns = 0;
  while (!pending.empty() || !running.empty()) {
    if (util::shutdown_requested() && out.interrupted_by == 0) {
      // Graceful shutdown: claim nothing new, forward SIGTERM so workers
      // wind down through their own signal path, and keep reaping.
      out.interrupted_by = util::shutdown_signal();
      interrupted_at_ns = clock->now_ns();
      pending.clear();
      for (Running& r : running) r.child.kill(kSigTerm);
      if (config.log) {
        *config.log << "[sweep] interrupted by signal " << out.interrupted_by
                    << "; waiting for " << running.size() << " worker(s)\n";
      }
    }
    const std::uint64_t now = clock->now_ns();

    if (out.interrupted_by == 0) {
      for (auto it = pending.begin();
           it != pending.end() && running.size() < jobs;) {
        if (it->ready_ns <= now) {
          spawn(*it);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }

    bool progressed = false;
    for (auto it = running.begin(); it != running.end();) {
      std::optional<util::ExitStatus> status = it->child.poll();
      bool timed_out = false;
      if (!status && timeout_ns > 0 && now - it->start_ns >= timeout_ns) {
        it->child.kill(kSigKill);
        status = it->child.wait();
        timed_out = true;
      }
      if (!status && out.interrupted_by != 0 &&
          now - interrupted_at_ns >= kTermGraceNs) {
        // SIGTERM was ignored (e.g. a hung worker); escalate.
        it->child.kill(kSigKill);
        status = it->child.wait();
      }
      if (!status) {
        ++it;
        continue;
      }
      progressed = true;
      AttemptRecord rec;
      rec.shard = it->shard;
      rec.attempt = it->attempt;
      rec.timed_out = timed_out;
      rec.exit_code = status->exit_code;
      rec.term_signal = status->signal;

      // Success is *verified output*, not exit status: a worker that
      // exited 0 but left a missing/torn/checksum-mismatched result has
      // failed its attempt all the same.
      std::string why;
      const bool verified =
          load_shard_result(config.dir, out.sweep_id, it->shard, &why)
              .has_value();
      if (verified) {
        out.completed.push_back(it->shard);
        if (config.log) {
          *config.log << "[sweep] shard " << it->shard << " attempt "
                      << it->attempt << ": complete\n";
        }
        out.attempts.push_back(std::move(rec));
      } else if (out.interrupted_by != 0) {
        rec.failure = "interrupted";
        out.attempts.push_back(std::move(rec));
      } else {
        rec.failure = timed_out ? "timeout (" + describe_exit(*status) + ")"
                                : describe_exit(*status) + "; " + why;
        handle_failure(std::move(rec));
      }
      it = running.erase(it);
    }

    if (!progressed && (!pending.empty() || !running.empty())) {
      clock->sleep_ns(kPollNs);
    }
  }

  std::sort(out.completed.begin(), out.completed.end());
  std::sort(out.quarantined.begin(), out.quarantined.end());
  return out;
}

namespace {

/// Applies the armed malfunction at the write-result point. Never
/// returns for crash/hang; for truncate/badsum it writes the damaged
/// file itself and the caller must skip the real write.
void apply_write_fault(const fault::Spec& spec, const std::string& dir,
                       const std::string& sweep_id,
                       const ShardResult& result) {
  switch (spec.kind) {
    case fault::Kind::kCrash:
      // Die without writing anything — the supervisor must see a failed
      // attempt with no (new) journal entry.
      std::_Exit(1);
    case fault::Kind::kHang:
      // Sleep past any timeout; only SIGKILL ends this worker.
      for (;;) util::SystemClock::instance().sleep_ns(50'000'000);
    case fault::Kind::kTruncate: {
      // The torn write the atomic writer is designed to prevent,
      // committed deliberately: half the valid bytes, straight to the
      // destination path. Parse fails => verification must reject it.
      const std::string text = shard_result_text(sweep_id, result);
      std::ofstream file(shard_path(dir, result.shard));
      file << text.substr(0, text.size() / 2);
      break;
    }
    case fault::Kind::kBadsum: {
      // Well-formed JSON whose checksum lies: every digit zeroed.
      std::string text = shard_result_text(sweep_id, result);
      const std::size_t pos = text.rfind("fnv1a64:");
      if (pos != std::string::npos) {
        text.replace(pos + 8, 16, "0000000000000000");
      }
      util::write_file_atomic(shard_path(dir, result.shard), text);
      break;
    }
    default:
      break;
  }
}

}  // namespace

int run_worker(const std::string& dir, std::size_t shard, int attempt) {
  const Manifest manifest = load_manifest(dir);
  const SweepSpec spec = SweepSpec::from_json(manifest.spec);
  if (shard >= manifest.shards) {
    throw std::invalid_argument("worker shard " + std::to_string(shard) +
                                " out of range (manifest has " +
                                std::to_string(manifest.shards) + ")");
  }
  // Re-derive the identical plan every worker and the merge layer share.
  const std::vector<core::StudySpec> points = spec.expand();
  const std::vector<SweepUnit> units = expand_units(spec, points);
  const ShardRange range =
      assign_shards(units.size(), manifest.shards)[shard];
  const fault::Spec& armed = fault::armed();

  ShardResult result;
  result.shard = shard;
  {
    obs::Span span("shard");
    for (std::size_t u = range.begin; u < range.end; ++u) {
      const SweepUnit& unit = units[u];
      const core::StudySpec& point = points[unit.point];
      core::StudyResult study =
          unit.runs == 0
              ? core::run_study(point)
              : core::run_measure_slice(point, unit.first_run, unit.runs);
      result.units.push_back(unit);
      result.studies.push_back(study.to_json());
    }
  }

  if (armed.targets(shard, static_cast<std::uint64_t>(attempt))) {
    apply_write_fault(armed, dir, manifest.sweep_id, result);
    return 0;  // truncate/badsum exit 0 with damaged output on disk
  }
  write_shard_result(dir, manifest.sweep_id, result);
  return 0;
}

}  // namespace mbcr::sweep
