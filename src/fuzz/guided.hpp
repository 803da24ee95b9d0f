// Coverage-guided differential fuzzing (ROADMAP "coverage-guided fuzzing
// v2"): close the loop between the obs counter registry and the case
// generator.
//
// The driver brackets every case with a counter snapshot, turns the delta
// into a deterministic feature vector (coverage.hpp), and keeps the cases
// that light features never seen before as a seed corpus. Subsequent
// cases are mutations of corpus seeds (mutate.hpp), scheduled by energy:
// a seed's weight is the rarity of its features, so cases that reached
// uncommon replay/TAC/verifier paths get mutated more. A blind case is
// still interleaved every few draws — fresh programs escape plateaus that
// mutation alone cannot.
//
// Everything — case stream, corpus membership, corpus file bytes, the
// coverage document — is a pure function of `--rng-seed`, whatever the
// thread count: coverage features exclude time-valued counters, and all
// scheduling randomness comes from one deterministic generator.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fuzz/coverage.hpp"
#include "fuzz/fuzz.hpp"
#include "util/json.hpp"

namespace mbcr::fuzz {

struct GuidedConfig {
  FuzzConfig base;       ///< budget, seeds, rng seed, oracle, shrink, ...
  bool guided = true;    ///< false: blind case stream, coverage still
                         ///< measured (the guided-vs-blind baseline)
  std::string corpus_out;       ///< directory for corpus seed files
                                ///< ("" = keep the corpus in memory only)
  std::size_t max_corpus = 256; ///< retained seed cap
};

/// One corpus entry, in discovery order.
struct GuidedSeed {
  std::uint64_t case_seed = 0;
  std::size_t new_features = 0;  ///< features this seed lit first
  std::string file;              ///< written seed file ("" if none)
};

struct GuidedReport {
  FuzzReport fuzz;
  bool guided = false;
  std::size_t features_discovered = 0;
  std::size_t blind_cases = 0;
  std::size_t mutated_cases = 0;
  /// Mutants whose oracles threw (out-of-bounds index, runaway loop, ...):
  /// discarded, not failures.
  std::size_t rejected_cases = 0;
  std::vector<GuidedSeed> corpus;
  std::map<Feature, std::uint64_t> feature_hits;
  double wall_s = 0;
  bool ok() const { return fuzz.ok(); }
};

/// Runs the guided (or blind-with-coverage) campaign. Arms obs collection
/// for the process — the coverage signal needs it.
/// Throws std::invalid_argument on a bad config, like run_fuzz.
GuidedReport run_guided(const GuidedConfig& config);

/// The coverage document (schema `mbcr-fuzz-coverage-v1`): every field is
/// deterministic under a fixed `--rng-seed` — no timings — so two runs'
/// documents are byte-identical.
json::Value coverage_document(const GuidedConfig& config,
                              const GuidedReport& report);

}  // namespace mbcr::fuzz
