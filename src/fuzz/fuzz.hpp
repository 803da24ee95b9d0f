// Differential fuzzing harness (ROADMAP "scenario breadth"): random
// programs and inputs from `ir/randprog` are driven through a pluggable
// set of cross-stack oracles that pin the fast paths to the reference
// semantics — replay vs generic caches, batched vs per-seed replay,
// streamed vs one-shot campaigns, the PUB subsequence invariant, TAC/
// ceiling conservatism, the Study JSON round trip, and the bytecode VM
// vs tree-walker differential.
//
// One driver, `run_fuzz`, brackets every case with an obs counter
// snapshot and turns the delta into coverage features (coverage.hpp);
// cases that light features never seen before become seeds of a corpus.
// With `guided` set, later cases are mutations of corpus seeds
// (mutate.hpp), scheduled by energy: a seed's weight is the rarity of its
// features, so cases that reached uncommon replay/TAC/verifier paths get
// mutated more. Blind cases (`make_case`) are still interleaved — fresh
// programs escape plateaus that mutation alone cannot. Without `guided`
// the driver runs the blind stream only, coverage still measured.
//
// Everything — case stream, corpus membership, corpus file bytes, the
// coverage document — is a pure function of `rng_seed`, whatever the
// thread count: coverage features exclude time-valued counters, and all
// scheduling randomness comes from one deterministic generator.
//
// On a failure the greedy shrinker (shrink.hpp) minimizes the case while
// preserving the failure, and the harness emits a self-contained repro
// document (repro.hpp) that the `FuzzCorpus` test suite replays forever
// after. `mbcr fuzz` is the CLI front-end; tests/fuzz exercises the
// machinery itself.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "fuzz/coverage.hpp"
#include "ir/program.hpp"
#include "ir/randprog.hpp"
#include "platform/machine.hpp"
#include "util/json.hpp"

namespace mbcr::fuzz {

/// Everything one fuzz case needs to be replayed: the program, its input
/// vectors, the platform run seeds the replay oracles sample, and the base
/// machine geometry. Oracles derive the full hierarchy-flavor grid
/// (L1-only / random-L2 / LRU-L2 x hash/modulo) from `machine`
/// deterministically, so a case pins every replay engine at once.
struct FuzzCaseData {
  ir::Program program;
  std::vector<ir::InputVector> inputs;
  std::vector<std::uint64_t> run_seeds;
  platform::MachineConfig machine;  ///< base geometry; L2 holds the drawn
                                    ///< L2 geometry, flavors toggle it
  /// Seed for the Study-API oracle (randprog spec seed + campaign master
  /// seed); also the case's identity in repro file names.
  std::uint64_t case_seed = 0;
};

struct FuzzConfig {
  std::size_t programs = 50;  ///< cases to generate (ignored when a time
                              ///< budget is set)
  std::size_t seeds = 8;      ///< platform run seeds per case
  double time_budget_s = 0;   ///< > 0: generate cases until the budget is
                              ///< spent instead of counting programs
  std::uint64_t rng_seed = 1; ///< master seed; cases derive from (seed, i)
  std::string oracle = "all"; ///< one oracle name, or "all"
  std::string corpus_dir;     ///< where shrunk repros are written ("" = cwd)
  bool shrink = true;
  bool guided = false;        ///< mutate corpus seeds; false: blind stream
  std::string corpus_out;     ///< directory for corpus seed files
                              ///< ("" = keep the corpus in memory only)
  /// Harness self-test: perturbs the fast replay observation inside the
  /// replay oracle so every case fails. Proves the fuzzer can detect,
  /// shrink and emit — without a fault-injection build.
  bool inject_fault_for_test = false;
  std::ostream* log = nullptr;  ///< progress/failure lines (null = silent)
};

struct FuzzFailure {
  std::string oracle;
  std::string detail;        ///< first failing comparison, human-readable
  std::uint64_t case_seed = 0;
  std::size_t case_index = 0;
  FuzzCaseData shrunk;       ///< minimized case (== original if !shrink)
  std::string repro_path;    ///< written repro file ("" if none)
};

/// One corpus entry, in discovery order.
struct CorpusSeed {
  std::uint64_t case_seed = 0;
  std::size_t new_features = 0;  ///< features this seed lit first
  std::string file;              ///< written seed file ("" if none)
};

struct FuzzReport {
  std::size_t cases_run = 0;
  std::size_t oracle_runs = 0;
  std::vector<FuzzFailure> failures;
  /// A shutdown signal (SIGINT/SIGTERM) stopped the loop early: no new
  /// cases were claimed, every repro found so far is already on disk, and
  /// the front-end exits 128+signal instead of 0/1.
  int interrupted_by = 0;
  std::size_t blind_cases = 0;
  std::size_t mutated_cases = 0;
  /// Mutants whose oracles threw (out-of-bounds index, runaway loop, ...):
  /// discarded, not failures.
  std::size_t rejected_cases = 0;
  std::size_t features_discovered = 0;
  std::vector<CorpusSeed> corpus;
  std::map<Feature, std::uint64_t> feature_hits;
  double wall_s = 0;  ///< the loop's wall time (not in coverage_document)
  bool ok() const { return failures.empty(); }
};

/// Deterministic case derivation: case `index` under `rng_seed` always
/// yields the same program, inputs, run seeds and geometry, whatever the
/// overall config — the contract that makes `--rng-seed` reproducible.
FuzzCaseData make_case(std::uint64_t rng_seed, std::size_t index,
                       std::size_t n_seeds);

/// A copy of `data` whose statement tree is safe to edit in place (the
/// shrinker's and the mutators' idiom: everything else is value-copied).
FuzzCaseData editable(const FuzzCaseData& data);

/// Runs the campaign. Arms obs collection for the process — the coverage
/// signal needs it. Stops after 5 failures. A blind case whose oracle
/// throws propagates the exception; only mutants are rejected. Throws
/// std::invalid_argument on a bad config (unknown oracle name, zero
/// programs/seeds without a time budget).
FuzzReport run_fuzz(const FuzzConfig& config);

/// The coverage document (schema `mbcr-fuzz-coverage-v1`): every field is
/// deterministic under a fixed `rng_seed` — no timings — so two runs'
/// documents are byte-identical.
json::Value coverage_document(const FuzzConfig& config,
                              const FuzzReport& report);

}  // namespace mbcr::fuzz
