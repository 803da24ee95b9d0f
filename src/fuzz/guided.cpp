#include "fuzz/guided.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "fuzz/mutate.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/repro.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "util/rng.hpp"
#include "util/signal.hpp"

namespace mbcr::fuzz {

namespace {

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

std::string seed_filename(std::size_t ordinal, std::uint64_t case_seed) {
  std::ostringstream ss;
  ss << "seed-" << std::setw(4) << std::setfill('0') << ordinal << "-"
     << std::hex << std::setw(16) << case_seed << ".json";
  return ss.str();
}

}  // namespace

GuidedReport run_guided(const GuidedConfig& config) {
  const FuzzConfig& base = config.base;
  if (base.seeds == 0) {
    throw std::invalid_argument("fuzz: need at least one run seed per case");
  }
  if (base.programs == 0 && base.time_budget_s <= 0) {
    throw std::invalid_argument(
        "fuzz: need a program count or a time budget");
  }
  const std::vector<const Oracle*> selected = select_oracles(base.oracle);

  GuidedReport report;
  report.guided = config.guided;
  obs::set_enabled(true);

  const auto start = std::chrono::steady_clock::now();
  const auto within_budget = [&](std::size_t produced) {
    if (base.time_budget_s > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      return elapsed.count() < base.time_budget_s;
    }
    return produced < base.programs;
  };

  // All scheduling randomness (blind-vs-mutate, seed/donor picks, the
  // mutations themselves) from one deterministic stream, salted so it
  // never collides with make_case's per-case streams.
  Xoshiro256 rng(mix64(0x67756964u, base.rng_seed));
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
    if (util::shutdown_requested()) {
      report.fuzz.interrupted_by = util::shutdown_signal();
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
      data = make_case(base.rng_seed, blind_index++, base.seeds);
      ++report.blind_cases;
    }

    ++report.fuzz.cases_run;
    static const obs::Counter cases_counter = obs::counter("fuzz.cases");
    cases_counter.add(1);
    if (obs::progress_enabled()) {
      obs::progress_tick("fuzz", report.fuzz.cases_run,
                         base.time_budget_s > 0 ? 0 : base.programs, "cases",
                         "features " +
                             std::to_string(coverage.size()));
    }

    // Bracket the oracle runs — and only them — with snapshots: shrinking
    // a failure re-runs oracles, and that growth must not pollute any
    // case's delta.
    const obs::CounterSnapshot before = obs::snapshot_counters();
    OracleOutcome outcome;
    const Oracle* failed = nullptr;
    try {
      failed = probe_case(data, selected, base.inject_fault_for_test,
                          report.fuzz, &outcome);
    } catch (const util::ShutdownRequested&) {
      throw;
    } catch (const std::exception&) {
      // A semantically bad mutant (index out of bounds, runaway loop):
      // every engine rejects it identically, nothing to differentiate.
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
      record_failure(data, index, *failed, outcome, base, report.fuzz);
      if (report.fuzz.failures.size() >= base.max_failures) break;
      continue;  // failing cases become repros, not corpus seeds
    }
    if (fresh.empty() || corpus.size() >= config.max_corpus) continue;

    GuidedSeed info;
    info.case_seed = data.case_seed;
    info.new_features = fresh.size();
    if (!config.corpus_out.empty()) {
      Repro entry;
      entry.oracle = base.oracle.empty() ? "all" : base.oracle;
      entry.detail = "corpus seed (" + std::to_string(fresh.size()) +
                     " new coverage features)";
      entry.data = data;
      info.file = config.corpus_out + "/" +
                  seed_filename(corpus.size(), data.case_seed);
      try {
        save_repro(entry, info.file);
      } catch (const std::exception& e) {
        if (base.log) *base.log << "[fuzz]   " << e.what() << "\n";
        info.file.clear();
      }
    }
    if (base.log) {
      *base.log << "[fuzz] corpus +" << fresh.size() << " feature(s) (case "
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
        .set(static_cast<double>(report.fuzz.cases_run) / report.wall_s);
    obs::gauge("fuzz.features_per_sec")
        .set(static_cast<double>(report.features_discovered) /
             report.wall_s);
  }
  obs::progress_done("fuzz", report.fuzz.cases_run, "cases");
  return report;
}

json::Value coverage_document(const GuidedConfig& config,
                              const GuidedReport& report) {
  json::Object doc;
  doc.emplace_back("schema", "mbcr-fuzz-coverage-v1");
  doc.emplace_back("guided", report.guided);
  doc.emplace_back("coverage_measured", true);
  doc.emplace_back("rng_seed", std::to_string(config.base.rng_seed));
  doc.emplace_back("oracle",
                   config.base.oracle.empty() ? "all" : config.base.oracle);
  doc.emplace_back("seeds_per_case", config.base.seeds);
  doc.emplace_back("cases", report.fuzz.cases_run);
  doc.emplace_back("blind_cases", report.blind_cases);
  doc.emplace_back("mutated_cases", report.mutated_cases);
  doc.emplace_back("rejected_cases", report.rejected_cases);
  doc.emplace_back("failures", report.fuzz.failures.size());
  doc.emplace_back("features", report.features_discovered);
  doc.emplace_back(
      "features_per_case",
      report.fuzz.cases_run == 0
          ? 0.0
          : static_cast<double>(report.features_discovered) /
                static_cast<double>(report.fuzz.cases_run));

  json::Array corpus;
  for (const GuidedSeed& seed : report.corpus) {
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

}  // namespace mbcr::fuzz
