#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <iomanip>
#include <iterator>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "fuzz/mutate.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"
#include "ir/randprog.hpp"
#include "ir/stmt.hpp"
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

constexpr std::size_t kMaxFailures = 5;  ///< stop scanning after this many
constexpr std::size_t kMaxCorpus = 256;  ///< retained seed cap

std::string repro_filename(const FuzzFailure& failure) {
  std::ostringstream ss;
  ss << "fuzz-" << failure.oracle << "-" << std::hex << failure.case_seed
     << ".json";
  return ss.str();
}

std::string seed_filename(std::size_t ordinal, std::uint64_t case_seed) {
  std::ostringstream ss;
  ss << "seed-" << std::setw(4) << std::setfill('0') << ordinal << "-"
     << std::hex << std::setw(16) << case_seed << ".json";
  return ss.str();
}

/// Resolves "all"/"" or one oracle name to the oracles to run. Throws
/// std::invalid_argument (listing the known names) on an unknown name.
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

/// Per-oracle wall time + run counts, keyed "fuzz.oracle.<name>.*".
/// Registered once per oracle per process and cached, so probe_case's hot
/// loop only does relaxed shard adds.
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

/// Runs one case through `oracles` in order (with per-oracle obs run/wall
/// tallies), counting into `report.oracle_runs`. Returns the first
/// failing oracle — its outcome in `*outcome` — or nullptr when every
/// oracle passes. Oracle exceptions (ExecError on a semantically bad
/// mutant) propagate to the caller.
const Oracle* probe_case(const FuzzCaseData& data,
                         const std::vector<const Oracle*>& oracles,
                         bool inject_fault, FuzzReport& report,
                         OracleOutcome* outcome) {
  for (const Oracle* oracle : oracles) {
    ++report.oracle_runs;
    const auto oracle_t0 = std::chrono::steady_clock::now();
    const OracleOutcome result = oracle->run(data, inject_fault);
    const OracleMetrics& m = oracle_metrics_for(*oracle);
    m.runs.add(1);
    m.wall_ns.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - oracle_t0)
            .count()));
    if (result.ok) continue;
    if (outcome) *outcome = result;
    return oracle;  // one failure per case is enough
  }
  return nullptr;
}

/// The failure path: logs, shrinks per `config`, writes the repro
/// document, appends to `report.failures`.
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

struct SeedEntry {
  FuzzCaseData data;
  std::vector<Feature> features;
};

/// Energy-weighted corpus pick: weight = rarity of the seed's features
/// (plus a floor so zero-rarity seeds stay reachable). Deterministic in
/// `rng`.
const SeedEntry& pick_seed(const std::vector<SeedEntry>& corpus,
                           const CoverageMap& coverage, Xoshiro256& rng) {
  double total = 0.0;
  std::vector<double> weights;
  weights.reserve(corpus.size());
  for (const SeedEntry& seed : corpus) {
    const double w = coverage.rarity(seed.features) + 0.01;
    weights.push_back(w);
    total += w;
  }
  double r = rng.uniform01() * total;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return corpus[i];
  }
  return corpus.back();
}

/// Deterministic pilot mutants for an early corpus seed: ladders along
/// the dimensions the blind generator keeps constant (run-seed count,
/// input count) plus geometry extremes outside its pools. The random
/// mutation stage can only climb such ladders one corpus round-trip per
/// rung; queueing the whole ladder up front reaches the far buckets
/// within any budget. Duplicate features are free (the coverage map
/// dedups) and the yield EMA retires the stage once it stops paying.
void enqueue_pilots(const FuzzCaseData& seed, Xoshiro256& rng,
                    std::deque<FuzzCaseData>& queue) {
  const auto stamped = [&](FuzzCaseData c) {
    c.case_seed = mix64(rng(), seed.case_seed);
    return c;
  };

  FuzzCaseData runs = seed;
  for (int k = 0; k < 4 && runs.run_seeds.size() < 64; ++k) {
    const std::size_t n = runs.run_seeds.size();
    for (std::size_t i = 0; i < n; ++i) {
      runs.run_seeds.push_back(mix64(runs.run_seeds[i], rng()));
    }
    queue.push_back(stamped(runs));
  }
  FuzzCaseData one = seed;
  one.run_seeds.resize(1);
  queue.push_back(stamped(std::move(one)));

  FuzzCaseData inputs = seed;
  for (int k = 0; k < 2 && inputs.inputs.size() * 2 <= 12; ++k) {
    const std::size_t n = inputs.inputs.size();
    for (std::size_t i = 0; i < n; ++i) {
      ir::InputVector copy = inputs.inputs[i];
      copy.label = "pilot" + std::to_string(inputs.inputs.size());
      inputs.inputs.push_back(std::move(copy));
    }
    queue.push_back(stamped(inputs));
  }

  const auto geometry = [&](auto&& edit) {
    FuzzCaseData g = seed;
    edit(g.machine);
    queue.push_back(stamped(std::move(g)));
  };
  geometry([](platform::MachineConfig& m) {
    m.il1 = {1, 1, m.il1.line_bytes};  // everything collides
    m.dl1 = {1, 1, m.dl1.line_bytes};
  });
  geometry([](platform::MachineConfig& m) {
    m.il1.sets = 4096;  // nothing collides
    m.dl1.sets = 4096;
  });
  geometry([](platform::MachineConfig& m) {
    m.l2.l2 = {1, 1, m.l2.l2.line_bytes};  // degenerate L2, max latency
    m.l2.latency = 80;
  });
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

FuzzCaseData editable(const FuzzCaseData& data) {
  FuzzCaseData out = data;
  out.program.body = ir::clone(data.program.body);
  return out;
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

  FuzzReport report;
  obs::set_enabled(true);

  const auto start = std::chrono::steady_clock::now();
  const auto within_budget = [&](std::size_t produced) {
    if (config.time_budget_s > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      return elapsed.count() < config.time_budget_s;
    }
    return produced < config.programs;
  };

  // All scheduling randomness (blind-vs-mutate, seed/donor picks, the
  // mutations themselves) from one deterministic stream, salted so it
  // never collides with make_case's per-case streams.
  Xoshiro256 rng(mix64(0x67756964u, config.rng_seed));
  CoverageMap coverage;
  std::vector<SeedEntry> corpus;
  std::deque<FuzzCaseData> pilots;

  // Two-armed bandit over blind generation vs corpus mutation: each arm
  // keeps an exponential moving average of fresh features per case, and
  // the draw is proportional to current yield. Early on blind explores
  // (the generator's diversity is unbeatable while the feature map is
  // empty); once it saturates, the budget flows to mutations — which
  // reach geometries and program sizes the generator never emits. The
  // floors keep both arms alive so a plateaued arm can recover.
  double blind_yield = 1.0;
  double mutate_yield = 1.0;
  constexpr double kYieldDecay = 0.95;
  constexpr double kYieldFloor = 0.02;

  std::size_t blind_index = 0;
  for (std::size_t index = 0; within_budget(index); ++index) {
    // Graceful shutdown: stop claiming new cases; every repro written so
    // far is already flushed (save_repro is atomic), so nothing is lost.
    if (util::shutdown_requested()) {
      report.interrupted_by = util::shutdown_signal();
      break;
    }
    const bool mutate =
        config.guided && !corpus.empty() &&
        rng.uniform01() * (blind_yield + mutate_yield) < mutate_yield;
    FuzzCaseData data;
    if (mutate) {
      if (!pilots.empty()) {
        data = std::move(pilots.front());
        pilots.pop_front();
      } else {
        const SeedEntry& seed = pick_seed(corpus, coverage, rng);
        const std::size_t donor_i =
            rng.uniform(static_cast<std::uint32_t>(corpus.size()));
        data = mutate_any(seed.data, &corpus[donor_i].data, rng);
        // Stacking jumps farther: repeated geometry/splice rounds
        // compound, walking cache shapes and program sizes well outside
        // the pools.
        for (std::uint32_t extra = rng.uniform(3); extra > 0; --extra) {
          data = mutate_any(data, &corpus[donor_i].data, rng);
        }
      }
      ++report.mutated_cases;
    } else {
      data = make_case(config.rng_seed, blind_index++, config.seeds);
      ++report.blind_cases;
    }

    ++report.cases_run;
    static const obs::Counter cases_counter = obs::counter("fuzz.cases");
    cases_counter.add(1);
    if (obs::progress_enabled()) {
      obs::progress_tick("fuzz", report.cases_run,
                         config.time_budget_s > 0 ? 0 : config.programs,
                         "cases",
                         "features " + std::to_string(coverage.size()));
    }

    // Bracket the oracle runs — and only them — with snapshots: shrinking
    // a failure re-runs oracles, and that growth must not pollute any
    // case's delta.
    const obs::CounterSnapshot before = obs::snapshot_counters();
    OracleOutcome outcome;
    const Oracle* failed = nullptr;
    try {
      failed = probe_case(data, selected, config.inject_fault_for_test,
                          report, &outcome);
    } catch (const util::ShutdownRequested&) {
      throw;
    } catch (const std::exception&) {
      // A generated case must run; a semantically bad mutant (index out
      // of bounds, runaway loop) is rejected by every engine identically,
      // nothing to differentiate.
      if (!mutate) throw;
      ++report.rejected_cases;
      continue;
    }
    const std::vector<Feature> features =
        features_from_delta(obs::snapshot_counters().delta_since(before));
    const std::vector<Feature> fresh = coverage.add(features);
    double& yield = mutate ? mutate_yield : blind_yield;
    yield = std::max(kYieldFloor,
                     kYieldDecay * yield + (1.0 - kYieldDecay) *
                                               static_cast<double>(
                                                   fresh.size()));

    if (failed) {
      record_failure(data, index, *failed, outcome, config, report);
      if (report.failures.size() >= kMaxFailures) break;
      continue;  // failing cases become repros, not corpus seeds
    }
    if (fresh.empty() || corpus.size() >= kMaxCorpus) continue;

    CorpusSeed info;
    info.case_seed = data.case_seed;
    info.new_features = fresh.size();
    if (!config.corpus_out.empty()) {
      Repro entry;
      entry.oracle = config.oracle.empty() ? "all" : config.oracle;
      entry.detail = "corpus seed (" + std::to_string(fresh.size()) +
                     " new coverage features)";
      entry.data = data;
      info.file = config.corpus_out + "/" +
                  seed_filename(corpus.size(), data.case_seed);
      try {
        save_repro(entry, info.file);
      } catch (const std::exception& e) {
        if (config.log) *config.log << "[fuzz]   " << e.what() << "\n";
        info.file.clear();
      }
    }
    if (config.log) {
      *config.log << "[fuzz] corpus +" << fresh.size() << " feature(s) (case "
                  << index << ", " << coverage.size() << " total)\n";
    }
    if (config.guided && corpus.size() < 2) {
      enqueue_pilots(data, rng, pilots);
    }
    corpus.push_back(SeedEntry{std::move(data), features});
    report.corpus.push_back(std::move(info));
  }

  report.features_discovered = coverage.size();
  report.feature_hits = coverage.all();
  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (report.wall_s > 0.0) {
    obs::gauge("fuzz.cases_per_sec")
        .set(static_cast<double>(report.cases_run) / report.wall_s);
    obs::gauge("fuzz.features_per_sec")
        .set(static_cast<double>(report.features_discovered) /
             report.wall_s);
  }
  obs::progress_done("fuzz", report.cases_run, "cases");
  return report;
}

json::Value coverage_document(const FuzzConfig& config,
                              const FuzzReport& report) {
  json::Object doc;
  doc.emplace_back("schema", "mbcr-fuzz-coverage-v1");
  doc.emplace_back("guided", config.guided);
  doc.emplace_back("coverage_measured", true);
  doc.emplace_back("rng_seed", std::to_string(config.rng_seed));
  doc.emplace_back("oracle", config.oracle.empty() ? "all" : config.oracle);
  doc.emplace_back("seeds_per_case", config.seeds);
  doc.emplace_back("cases", report.cases_run);
  doc.emplace_back("blind_cases", report.blind_cases);
  doc.emplace_back("mutated_cases", report.mutated_cases);
  doc.emplace_back("rejected_cases", report.rejected_cases);
  doc.emplace_back("failures", report.failures.size());
  doc.emplace_back("features", report.features_discovered);
  doc.emplace_back(
      "features_per_case",
      report.cases_run == 0
          ? 0.0
          : static_cast<double>(report.features_discovered) /
                static_cast<double>(report.cases_run));

  json::Array corpus;
  for (const CorpusSeed& seed : report.corpus) {
    json::Object entry;
    std::ostringstream hex;
    hex << "0x" << std::hex << seed.case_seed;
    entry.emplace_back("case_seed", hex.str());
    entry.emplace_back("new_features", seed.new_features);
    if (!seed.file.empty()) {
      // Basename only: the document stays byte-identical whatever
      // directory --corpus-out pointed at.
      const std::size_t slash = seed.file.find_last_of('/');
      entry.emplace_back("file", slash == std::string::npos
                                     ? seed.file
                                     : seed.file.substr(slash + 1));
    }
    corpus.push_back(json::Value(std::move(entry)));
  }
  doc.emplace_back("corpus", json::Value(std::move(corpus)));

  json::Object hits;
  for (const auto& [feature, count] : report.feature_hits) {
    hits.emplace_back(feature, count);
  }
  doc.emplace_back("feature_hits", json::Value(std::move(hits)));
  return json::Value(std::move(doc));
}

OracleOutcome run_repro(const Repro& repro) {
  for (const Oracle* oracle : select_oracles(repro.oracle)) {
    const OracleOutcome outcome = oracle->run(repro.data, false);
    if (!outcome.ok) {
      return {false, std::string(oracle->name) + ": " + outcome.detail};
    }
  }
  return {};
}

}  // namespace mbcr::fuzz
