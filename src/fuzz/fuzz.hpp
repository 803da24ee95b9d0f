// Differential fuzzing harness (ROADMAP "scenario breadth"): random
// programs and inputs from `ir/randprog` are driven through a pluggable
// set of cross-stack oracles that pin the fast paths to the reference
// semantics — replay vs generic caches, batched vs per-seed replay,
// streamed vs one-shot campaigns, the PUB subsequence invariant, TAC/
// ceiling conservatism, the Study JSON round trip, and the bytecode VM
// vs tree-walker differential.
//
// On a failure the greedy shrinker (shrink.hpp) minimizes the case while
// preserving the failure, and the harness emits a self-contained repro
// document (repro.hpp) that the `FuzzCorpus` test suite replays forever
// after. `mbcr fuzz` is the CLI front-end; tests/fuzz exercises the
// machinery itself.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ir/program.hpp"
#include "ir/randprog.hpp"
#include "platform/machine.hpp"

namespace mbcr::fuzz {

struct Oracle;
struct OracleOutcome;

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
  std::size_t max_failures = 5;  ///< stop scanning after this many failures
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

struct FuzzReport {
  std::size_t cases_run = 0;
  std::size_t oracle_runs = 0;
  std::vector<FuzzFailure> failures;
  /// A shutdown signal (SIGINT/SIGTERM) stopped the loop early: no new
  /// cases were claimed, every repro found so far is already on disk, and
  /// the front-end exits 128+signal instead of 0/1.
  int interrupted_by = 0;
  bool ok() const { return failures.empty(); }
};

/// Deterministic case derivation: case `index` under `rng_seed` always
/// yields the same program, inputs, run seeds and geometry, whatever the
/// overall config — the contract that makes `--rng-seed` reproducible.
FuzzCaseData make_case(std::uint64_t rng_seed, std::size_t index,
                       std::size_t n_seeds);

/// Runs the campaign. Throws std::invalid_argument on a bad config
/// (unknown oracle name, zero programs/seeds without a time budget).
FuzzReport run_fuzz(const FuzzConfig& config);

// --- shared driver machinery (run_fuzz + the guided engine) ---------------

/// Resolves "all"/"" or one oracle name to the oracles to run. Throws
/// std::invalid_argument (listing the known names) on an unknown name.
std::vector<const Oracle*> select_oracles(const std::string& oracle);

/// Runs one case through `oracles` in order (with per-oracle obs run/wall
/// tallies), counting into `report.oracle_runs`. Returns the first
/// failing oracle — its outcome in `*outcome` — or nullptr when every
/// oracle passes. Oracle exceptions (ExecError on a semantically bad
/// mutant) propagate to the caller.
const Oracle* probe_case(const FuzzCaseData& data,
                         const std::vector<const Oracle*>& oracles,
                         bool inject_fault, FuzzReport& report,
                         OracleOutcome* outcome);

/// The failure path both drivers share: logs, shrinks per `config`,
/// writes the repro document, appends to `report.failures`.
void record_failure(const FuzzCaseData& data, std::size_t index,
                    const Oracle& oracle, const OracleOutcome& outcome,
                    const FuzzConfig& config, FuzzReport& report);

}  // namespace mbcr::fuzz
