// studybench: the whole-study benchmark.
//
//   studybench --workload NAME --seed N --seconds S --trace 0|1
//              [--size full|tiny] [--digests FILE] [--record-digests]
//              [--spans FILE]
//
// One run: set up (median of several cold set-ups), then run the workload's
// studies through core::run_study with tracing off, pass after pass, for
// --seconds; then rebuild every study once layer by layer with a timer
// around each layer call (rebuild.hpp). Every study is checked: it must
// not throw or pass its deadline, must agree with its rebuild and with the
// reference machine on sampled runs, and at the default seed its result
// JSON must hash to the recorded digest. The last stdout line is one JSON
// object: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Any failed study makes the exit code 1.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "rebuild.hpp"
#include "util/json.hpp"
#include "util/pool.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace studybench {
namespace {

using namespace mbcr;
using Clock = std::chrono::steady_clock;

/// The seed whose study digests are recorded in digests.json.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetups = 5;
/// Sampled runs per campaign checked against the reference machine.
constexpr std::size_t kSpotRuns = 3;
/// A study slower than this fails; the slowest full study takes ~3 s.
constexpr double kDeadlineS = 60;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

struct Usage {
  double cpu_s = 0;
  double max_rss_mb = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {secs(ru.ru_utime) + secs(ru.ru_stime),
            static_cast<double>(ru.ru_maxrss) / 1024.0};
  }
};

/// 64-bit FNV-1a, hex.
std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The digest of the document `mbcr analyze --json` would write.
std::string result_digest(const core::StudyResult& result) {
  return digest(result.to_json().dump(2) + "\n");
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string digests;
  bool record_digests = false;
  std::string spans;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-digests") {
      o.record_digests = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--trace") o.trace = value == "1";
    else if (flag == "--size") o.size = parse_size(value);
    else if (flag == "--digests") o.digests = value;
    else if (flag == "--spans") o.spans = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.record_digests && (o.digests.empty() || o.seed != kDefaultSeed)) {
    throw std::invalid_argument(
        "--record-digests needs --digests and the default seed");
  }
  return o;
}

/// One study of the workload and everything the run learns about it.
struct Study {
  std::string name;
  core::StudySpec spec;
  std::optional<core::StudyResult> reference;  ///< first successful result
  std::string reference_digest;
  std::vector<double> times;
  int executions = 0;
  int failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 4) problems.push_back(why);
  }
  /// A failure of the study itself fails every execution of it.
  void fail_all(const std::string& why) {
    failed = executions;
    problems.push_back(why);
  }
};

/// The suite registry: the workload and its studies' specs.
struct Registry {
  Workload workload;
  std::vector<Study> studies;
  core::StudySpec warmup;
};

Registry make_registry(const Options& opt) {
  std::vector<Workload> workloads = all_workloads(opt.size);
  const auto it = std::find_if(workloads.begin(), workloads.end(),
                               [&](const Workload& w) {
                                 return w.name == opt.workload;
                               });
  if (it == workloads.end()) {
    throw std::invalid_argument("unknown workload " + opt.workload);
  }
  Registry r{std::move(*it), {}, {}};
  for (const StudyDef& def : r.workload.studies) {
    Study s;
    s.name = def.name;
    s.spec = make_spec(def.flags, opt.seed);
    r.studies.push_back(std::move(s));
  }
  r.warmup = make_spec(r.workload.warmup, opt.seed);
  return r;
}

/// One cold set-up, in a process that has neither the registry nor the
/// campaign pool yet: the suite registry, pool spin-up and one untimed
/// warm-up study. Returns its seconds.
double cold_setup(const Options& opt, Registry& out) {
  const Clock::time_point start = Clock::now();
  out = make_registry(opt);
  ThreadPool& pool = ThreadPool::shared();
  pool.parallel_for(pool.workers(), 1, [](std::size_t, std::size_t) {});
  core::run_study(out.warmup);
  return seconds_since(start);
}

/// Times `count` cold set-ups, one after another, each in a forked child.
/// Must run before this process starts any thread.
std::vector<double> forked_setups(const Options& opt, int count) {
  std::vector<double> out;
  for (int i = 0; i < count; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      close(fds[0]);
      double seconds = -1;
      try {
        Registry r;
        seconds = cold_setup(opt, r);
      } catch (const std::exception& e) {
        std::cerr << "studybench: " << e.what() << "\n";
      }
      const bool sent = write(fds[1], &seconds, sizeof seconds) ==
                        static_cast<ssize_t>(sizeof seconds);
      _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double seconds = -1;
    const bool got = read(fds[0], &seconds, sizeof seconds) ==
                     static_cast<ssize_t>(sizeof seconds);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || seconds < 0 || status != 0) {
      throw std::runtime_error("a forked set-up failed");
    }
    out.push_back(seconds);
  }
  return out;
}

json::Value load_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) return json::Value(json::Object{});
  std::stringstream ss;
  ss << in.rdbuf();
  return json::parse(ss.str());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int run(const Options& opt) {
  // Set-up, kSetups times from cold: in forked children first, while this
  // process has no threads, then here for real.
  std::vector<double> setups = forked_setups(opt, kSetups - 1);
  Registry registry;
  setups.push_back(cold_setup(opt, registry));
  const Workload& workload = registry.workload;
  std::vector<Study>& studies = registry.studies;

  // Timed passes over the workload's studies, tracing off.
  struct Pass {
    double wall_s, study_max_s, cpu_s;
  };
  std::vector<Pass> passes;
  const Clock::time_point measure_start = Clock::now();
  while (passes.empty() || seconds_since(measure_start) < opt.seconds) {
    Pass pass{0, 0, 0};
    std::vector<core::StudyResult> results(studies.size());
    std::vector<std::string> errors(studies.size());
    const Usage usage_start = Usage::now();
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < studies.size(); ++i) {
      Study& s = studies[i];
      const Clock::time_point start = Clock::now();
      try {
        results[i] = core::run_study(s.spec);
      } catch (const std::exception& e) {
        errors[i] = std::string("threw: ") + e.what();
      }
      const double t = seconds_since(start);
      s.times.push_back(t);
      pass.study_max_s = std::max(pass.study_max_s, t);
    }
    pass.wall_s = seconds_since(pass_start);
    pass.cpu_s = Usage::now().cpu_s - usage_start.cpu_s;

    // Checks, outside the timed section.
    for (std::size_t i = 0; i < studies.size(); ++i) {
      Study& s = studies[i];
      ++s.executions;
      if (!errors[i].empty()) {
        s.fail(errors[i]);
        continue;
      }
      const std::string d = result_digest(results[i]);
      if (s.times.back() > kDeadlineS) s.fail("passed its deadline");
      if (!s.reference) {
        s.reference = std::move(results[i]);
        s.reference_digest = d;
      } else if (d != s.reference_digest) {
        s.fail("result differs between passes");
      }
    }
    passes.push_back(pass);
    std::cerr << "studybench: pass " << passes.size() << " wall " << pass.wall_s
              << " s, cpu " << pass.cpu_s << " s\n";
  }
  const double max_rss_mb = Usage::now().max_rss_mb;

  // Digests at the default seed.
  json::Value digests = load_digests(opt.digests);
  if (opt.seed == kDefaultSeed) {
    json::Value recorded(json::Object{});
    if (const json::Value* v = digests.find(to_string(opt.size))) recorded = *v;
    for (Study& s : studies) {
      if (!s.reference) continue;
      const std::string key = workload.name + "/" + s.name;
      if (opt.record_digests) {
        recorded.set(key, s.reference_digest);
        continue;
      }
      const json::Value* want = recorded.find(key);
      if (want == nullptr || !want->is_string() ||
          want->as_string() != s.reference_digest) {
        s.fail_all("digest " + s.reference_digest +
                   " does not match the recorded one");
      }
    }
    if (opt.record_digests) {
      digests.set(to_string(opt.size), recorded);
      std::ofstream(opt.digests) << digests.dump(2) << "\n";
    }
  }

  // Traced rebuild, layer by layer, with the same checks.
  LayerTotals layers;
  SpanLog spans;
  for (Study& s : studies) {
    if (!s.reference) continue;
    spans.set_study(s.name);
    std::vector<std::string> diffs;
    try {
      const Rebuilt rebuilt = rebuild_study(s.spec, kSpotRuns, layers, spans);
      diffs = compare(*s.reference, rebuilt);
      diffs.insert(diffs.end(), rebuilt.spot_failures.begin(),
                   rebuilt.spot_failures.end());
    } catch (const std::exception& e) {
      diffs.push_back(std::string("rebuild threw: ") + e.what());
    }
    if (!diffs.empty()) s.fail_all("rebuild: " + diffs.front());
  }
  if (!opt.spans.empty()) {
    std::ofstream out(opt.spans);
    spans.write_chrome_json(out);
  }

  int attempted = 0;
  int failed = 0;
  for (const Study& s : studies) {
    attempted += s.executions;
    failed += s.failed;
    std::cerr << "studybench: " << workload.name << "/" << s.name
              << "  median " << median(s.times) << " s";
    for (const std::string& p : s.problems) std::cerr << "  FAILED: " << p;
    std::cerr << "\n";
  }

  const auto med = [&](double Pass::*field) {
    std::vector<double> xs;
    for (const Pass& p : passes) xs.push_back(p.*field);
    return median(xs);
  };
  // Every pass replays what the rebuild replays (checked above), so the
  // rebuild's runs x full-trace accesses is each pass's numerator.
  std::vector<double> rates;
  for (const Pass& p : passes) {
    rates.push_back(static_cast<double>(layers.simulated_accesses) / p.wall_s);
  }
  const double wall_s = med(&Pass::wall_s);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"wall_s", wall_s, "s"},
        {"study_max_s", med(&Pass::study_max_s), "s"},
        {"sim_accesses_per_s", median(rates), "1/s"},
        {"cpu_s", med(&Pass::cpu_s), "s"},
        {"max_rss_mb", max_rss_mb, "MB"},
        {"setup_s", median(setups), "s"},
    };
  } else {
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    metrics = {
        {"platform.replay_s", layers.replay_s(), "s"},
        {"platform.probe_s", layers.probe_s, "s"},
        {"platform.converge_replay_s", layers.converge_replay_s, "s"},
        {"platform.extend_s", layers.extend_s, "s"},
        {"platform.ns_per_access",
         layers.replay_s() * 1e9 / count(layers.simulated_accesses), "ns"},
        {"platform.runs", count(layers.runs), "count"},
        {"platform.extend_runs", count(layers.extend_runs), "count"},
        {"platform.replayed_entries", count(layers.replayed_entries), "count"},
        {"cpu.compact_s", layers.cpu_compact_s, "s"},
        {"cpu.trace_accesses", count(layers.trace_accesses), "count"},
        {"cpu.compact_entries", count(layers.compact_entries), "count"},
        {"mbpta.fit_s", layers.fit_s, "s"},
        {"mbpta.refit_s", layers.refit_s, "s"},
        {"mbpta.refits", count(layers.refits), "count"},
        {"tac.analyze_s", layers.tac_s, "s"},
        {"tac.groups_considered", count(layers.tac_groups), "count"},
        {"tac.events", count(layers.tac_events), "count"},
        {"tac.required_runs", count(layers.tac_required_runs), "count"},
        {"ir.execute_s", layers.ir_execute_s, "s"},
        {"pub.apply_s", layers.pub_apply_s, "s"},
        {"core.glue_s", layers.study_wall_s - layers.layer_s(), "s"},
        {"bench.trace_overhead_frac", layers.study_wall_s / wall_s - 1.0,
         "ratio"},
    };
  }

  // Human-readable summary, then the one-line JSON result.
  std::cout << "studybench " << workload.name << " (" << to_string(opt.size)
            << ", seed " << opt.seed << ", " << kThreads << " threads): " << passes.size() << " passes\n";
  json::Object values;
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    json::Object v;
    v.emplace_back("value", m.value);
    v.emplace_back("unit", m.unit);
    values.emplace_back(m.name, json::Value(std::move(v)));
  }
  std::cout << "  studies_failed_frac = "
            << static_cast<double>(failed) / std::max(attempted, 1)
            << " ratio (" << failed << " of " << attempted << ")\n";
  json::Object result;
  result.emplace_back("correct", failed == 0);
  result.emplace_back("attempted", attempted);
  result.emplace_back("failed", failed);
  result.emplace_back("metrics", json::Value(std::move(values)));
  std::cout << json::Value(std::move(result)).dump(0) << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace studybench

int main(int argc, char** argv) {
  try {
    return studybench::run(studybench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "studybench: " << e.what() << "\n";
    return 2;
  }
}
