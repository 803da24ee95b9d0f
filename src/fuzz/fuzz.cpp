#include "fuzz/fuzz.hpp"

#include <chrono>
#include <iterator>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "fuzz/oracles.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"
#include "ir/randprog.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "util/rng.hpp"
#include "util/signal.hpp"

namespace mbcr::fuzz {

namespace {

/// Geometry pools the case generator draws from. Deliberately spikier
/// than the paper platform: direct-mapped, near-fully-associative and
/// tiny caches shake out replay corner cases uniform geometries miss.
constexpr CacheConfig kL1Pool[] = {
    {64, 2, 32},  // the paper's L1
    {8, 4, 32},   // the Sec. 3.1 worked-example geometry
    {16, 1, 32},  // direct mapped
    {32, 4, 32},
    {4, 8, 32},   // almost fully associative, tiny
};

constexpr CacheConfig kL2Pool[] = {
    {256, 8, 32},  // the default 64KB unified L2
    {64, 4, 32},
    {16, 2, 32},   // smaller than most L1s above
};

std::string repro_filename(const FuzzFailure& failure) {
  std::ostringstream ss;
  ss << "fuzz-" << failure.oracle << "-" << std::hex << failure.case_seed
     << ".json";
  return ss.str();
}

/// End-of-run observability: the throughput gauge and the final progress
/// line. Called on every run_fuzz exit path.
void finish_fuzz_obs(const FuzzReport& report,
                     std::chrono::steady_clock::time_point start) {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (obs::enabled() && elapsed > 0.0) {
    obs::gauge("fuzz.cases_per_sec")
        .set(static_cast<double>(report.cases_run) / elapsed);
  }
  obs::progress_done("fuzz", report.cases_run, "cases");
}

/// Per-oracle wall time + run counts, keyed "fuzz.oracle.<name>.*".
/// Registered once per oracle per process and cached, so probe_case's hot
/// loop only does relaxed shard adds — whichever driver is running.
struct OracleMetrics {
  obs::Counter runs;
  obs::Counter wall_ns;
};

const OracleMetrics& oracle_metrics_for(const Oracle& oracle) {
  static std::mutex mutex;
  static std::map<const Oracle*, OracleMetrics>* cache =
      new std::map<const Oracle*, OracleMetrics>;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache->find(&oracle);
  if (it == cache->end()) {
    const std::string base = std::string("fuzz.oracle.") + oracle.name;
    it = cache
             ->emplace(&oracle,
                       OracleMetrics{obs::counter(base + ".runs"),
                                     obs::counter(base + ".wall_ns")})
             .first;
  }
  return it->second;
}

}  // namespace

FuzzCaseData make_case(std::uint64_t rng_seed, std::size_t index,
                       std::size_t n_seeds) {
  FuzzCaseData data;
  data.case_seed = mix64(index, rng_seed);
  Xoshiro256 rng(data.case_seed);

  ir::RandProgConfig rp;
  rp.max_depth = 2 + static_cast<int>(rng.uniform(3));        // 2..4
  rp.max_block_stmts = 2 + static_cast<int>(rng.uniform(4));  // 2..5
  rp.n_arrays = 1 + static_cast<int>(rng.uniform(4));         // 1..4
  rp.array_size = std::size_t{8} << rng.uniform(5);           // 8..128
  rp.n_scalars = 3 + static_cast<int>(rng.uniform(5));        // 3..7
  rp.n_inputs = 2;
  rp.max_loop_trips = 3 + rng.uniform(8);                     // 3..10
  rp.scalar_alias_prob = rng.uniform(2) ? 0.25 : 0.0;
  data.program = ir::random_program(rng, rp);
  data.program.name = "fuzz" + std::to_string(index);

  for (int i = 0; i < 3; ++i) {
    ir::InputVector in = ir::random_input(data.program, rng, rp);
    in.label = "rnd" + std::to_string(i);
    data.inputs.push_back(std::move(in));
  }

  data.machine.il1 = kL1Pool[rng.uniform(std::size(kL1Pool))];
  data.machine.dl1 = kL1Pool[rng.uniform(std::size(kL1Pool))];
  data.machine.l2.l2 = kL2Pool[rng.uniform(std::size(kL2Pool))];
  data.machine.l2.enabled = false;  // flavors toggle it
  data.machine.l2.latency = 10;

  data.run_seeds.reserve(n_seeds);
  for (std::size_t s = 0; s < n_seeds; ++s) {
    data.run_seeds.push_back(mix64(s, data.case_seed));
  }
  return data;
}

std::vector<const Oracle*> select_oracles(const std::string& oracle) {
  std::vector<const Oracle*> selected;
  if (oracle.empty() || oracle == "all") {
    for (const Oracle& o : all_oracles()) selected.push_back(&o);
  } else {
    const Oracle* o = find_oracle(oracle);
    if (!o) {
      std::string known;
      for (const Oracle& each : all_oracles()) {
        known += known.empty() ? each.name : std::string("|") + each.name;
      }
      throw std::invalid_argument("fuzz: unknown oracle '" + oracle +
                                  "' (expected all|" + known + ")");
    }
    selected.push_back(o);
  }
  return selected;
}

const Oracle* probe_case(const FuzzCaseData& data,
                         const std::vector<const Oracle*>& oracles,
                         bool inject_fault, FuzzReport& report,
                         OracleOutcome* outcome) {
  const bool collect = obs::enabled();
  for (const Oracle* oracle : oracles) {
    ++report.oracle_runs;
    const auto oracle_t0 = collect ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
    const OracleOutcome result = oracle->run(data, inject_fault);
    if (collect) {
      const OracleMetrics& m = oracle_metrics_for(*oracle);
      m.runs.add(1);
      m.wall_ns.add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - oracle_t0)
              .count()));
    }
    if (result.ok) continue;
    if (outcome) *outcome = result;
    return oracle;  // one failure per case is enough
  }
  return nullptr;
}

void record_failure(const FuzzCaseData& data, std::size_t index,
                    const Oracle& oracle, const OracleOutcome& outcome,
                    const FuzzConfig& config, FuzzReport& report) {
  FuzzFailure failure;
  failure.oracle = oracle.name;
  failure.detail = outcome.detail;
  failure.case_seed = data.case_seed;
  failure.case_index = index;
  if (config.log) {
    *config.log << "[fuzz] case " << index << " (seed 0x" << std::hex
                << data.case_seed << std::dec << ") oracle " << oracle.name
                << " FAILED: " << outcome.detail << "\n";
  }
  failure.shrunk =
      config.shrink ? shrink_case(data, oracle, config.inject_fault_for_test)
                    : data;
  if (config.log && config.shrink) {
    *config.log << "[fuzz]   shrunk to " << failure.shrunk.inputs.size()
                << " input(s), " << failure.shrunk.run_seeds.size()
                << " seed(s), " << ir::stmt_count(failure.shrunk.program.body)
                << " statement node(s), "
                << failure.shrunk.program.arrays.size() << " array(s)\n";
  }

  Repro repro;
  repro.oracle = oracle.name;
  repro.detail = outcome.detail;
  repro.data = failure.shrunk;
  const std::string dir =
      config.corpus_dir.empty() ? std::string(".") : config.corpus_dir;
  failure.repro_path = dir + "/" + repro_filename(failure);
  try {
    save_repro(repro, failure.repro_path);
    if (config.log) {
      *config.log << "[fuzz]   repro written to " << failure.repro_path
                  << "\n";
    }
  } catch (const std::exception& e) {
    if (config.log) *config.log << "[fuzz]   " << e.what() << "\n";
    failure.repro_path.clear();
  }

  report.failures.push_back(std::move(failure));
}

FuzzReport run_fuzz(const FuzzConfig& config) {
  if (config.seeds == 0) {
    throw std::invalid_argument("fuzz: need at least one run seed per case");
  }
  if (config.programs == 0 && config.time_budget_s <= 0) {
    throw std::invalid_argument(
        "fuzz: need a program count or a time budget");
  }
  const std::vector<const Oracle*> selected = select_oracles(config.oracle);

  const auto start = std::chrono::steady_clock::now();
  const auto within_budget = [&](std::size_t index) {
    if (config.time_budget_s > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      return elapsed.count() < config.time_budget_s;
    }
    return index < config.programs;
  };

  const bool collect = obs::enabled();
  const obs::Counter cases_counter = obs::counter("fuzz.cases");

  FuzzReport report;
  for (std::size_t index = 0; within_budget(index); ++index) {
    // Graceful shutdown: stop claiming new cases; every repro written so
    // far is already flushed (save_repro is atomic), so nothing is lost.
    if (util::shutdown_requested()) {
      report.interrupted_by = util::shutdown_signal();
      break;
    }
    const FuzzCaseData data = make_case(config.rng_seed, index, config.seeds);
    ++report.cases_run;
    if (collect) cases_counter.add(1);
    if (obs::progress_enabled()) {
      obs::progress_tick("fuzz", report.cases_run,
                         config.time_budget_s > 0 ? 0 : config.programs,
                         "cases");
    }
    OracleOutcome outcome;
    const Oracle* failed =
        probe_case(data, selected, config.inject_fault_for_test, report,
                   &outcome);
    if (!failed) continue;
    record_failure(data, index, *failed, outcome, config, report);
    if (report.failures.size() >= config.max_failures) {
      finish_fuzz_obs(report, start);
      return report;
    }
  }
  finish_fuzz_obs(report, start);
  return report;
}

OracleOutcome run_repro(const Repro& repro) {
  std::vector<const Oracle*> selected;
  if (repro.oracle == "all" || repro.oracle.empty()) {
    for (const Oracle& o : all_oracles()) selected.push_back(&o);
  } else {
    const Oracle* o = find_oracle(repro.oracle);
    if (!o) {
      throw std::invalid_argument("repro names unknown oracle '" +
                                  repro.oracle + "'");
    }
    selected.push_back(o);
  }
  for (const Oracle* oracle : selected) {
    const OracleOutcome outcome = oracle->run(repro.data, false);
    if (!outcome.ok) {
      return {false, std::string(oracle->name) + ": " + outcome.detail};
    }
  }
  return {};
}

}  // namespace mbcr::fuzz
