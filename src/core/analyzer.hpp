// The paper's overall application process (Fig. 3):
//
//   P_orig --PUB--> P_pub --trace(input j)--> TAC --> R_pub+tac
//        --campaign(R runs)--> execution times --MBPTA--> pWCET
//
// plus the two baselines the evaluation compares against: plain MBPTA on
// the original program (R_orig) and PUB-only (R_pub = MBPTA convergence on
// the pubbed program, without TAC's representativeness runs).
#pragma once

#include <span>
#include <string>

#include "ir/interp.hpp"
#include "ir/program.hpp"
#include "mbpta/convergence.hpp"
#include "mbpta/pwcet.hpp"
#include "platform/campaign.hpp"
#include "pub/pub_transform.hpp"
#include "tac/runs.hpp"

namespace mbcr::core {

struct AnalysisConfig {
  platform::MachineConfig machine;
  platform::CampaignConfig campaign;
  tac::TacConfig tac;
  mbpta::ConvergenceConfig convergence;
  pub::PubOptions pub;
  /// Certification probability for reported pWCETs (paper Table 1: 1e-12).
  double pwcet_probability = 1e-12;
  /// Probe runs used to estimate the typical execution time that anchors
  /// TAC's relative impact threshold.
  std::size_t baseline_probe_runs = 64;
  /// Unread: the bytecode VM is the only engine. Kept because the
  /// whole-study benchmark's rebuild (studybench/rebuild.cpp) assigns it.
  ir::Executor executor = ir::Executor::kVm;
};

/// Everything the analyzer learned about one (program, input) pair.
struct PathAnalysis {
  std::string program_name;
  std::string input_label;

  std::size_t trace_accesses = 0;
  double baseline_cycles = 0;       ///< mean of the probe campaign

  std::size_t r_mbpta = 0;          ///< MBPTA convergence runs
  std::size_t r_tac = 0;            ///< TAC-required runs (0 if TAC off)
  std::size_t r_total = 0;          ///< max(r_mbpta, r_tac): campaign size

  tac::TacTraceResult tac;          ///< populated when TAC ran
  mbpta::PwcetCurve pwcet;          ///< from the full r_total sample
  mbpta::PwcetCurve pwcet_converged_only;  ///< from the first r_mbpta runs

  double pwcet_at(double p) const { return pwcet.at(p); }
};

/// Corollary 2 combinators over a set of per-path analyses: the lowest
/// pWCET at `p` across paths (0 when empty), and the index of the path
/// providing it. Shared by MultiPathAnalysis and the Study API.
double combined_pwcet_at(std::span<const PathAnalysis> paths, double p);
std::size_t tightest_path_index(std::span<const PathAnalysis> paths, double p);

class Analyzer {
public:
  explicit Analyzer(AnalysisConfig config = {});

  /// Plain MBPTA on the original program (no PUB, no TAC): the paper's
  /// R_orig / "original pWCET with user-provided input sets".
  PathAnalysis analyze_original(const ir::Program& program,
                                const ir::InputVector& input) const;

  /// PUB(+TAC) on the pubbed version of `program`, measuring the path
  /// exercised by `input` (any pubbed path is valid — Observation 3).
  /// `with_tac=false` reproduces the PUB-only columns.
  PathAnalysis analyze_pubbed(const ir::Program& program,
                              const ir::InputVector& input,
                              bool with_tac = true) const;

  /// Analysis of an already-transformed (or deliberately untransformed)
  /// program; the building block of the two entry points above.
  PathAnalysis analyze_program(const ir::Program& program,
                               const ir::InputVector& input,
                               bool with_tac) const;

  /// Corollary 2: every pubbed path's pWCET is an equally reliable and
  /// representative upper bound, so for any exceedance threshold the
  /// LOWEST value across analyzed pubbed paths may be taken. Analyzing
  /// more paths trades analysis cost for tightness (never reliability).
  struct MultiPathAnalysis {
    std::vector<PathAnalysis> per_path;
    /// Pointwise minimum over the analyzed paths' pWCET curves.
    double pwcet_at(double p) const;
    /// Index of the path providing the minimum at probability `p`.
    std::size_t tightest_path(double p) const;
  };

  /// Runs `analyze_pubbed` for each input and combines per Corollary 2.
  /// All per-path campaigns are batched concurrently onto the shared
  /// campaign pool; results are deterministic and ordered like `inputs`.
  MultiPathAnalysis analyze_pubbed_paths(
      const ir::Program& program,
      const std::vector<ir::InputVector>& inputs, bool with_tac = true) const;

  /// Ground-truth style campaign: N runs of the program as-is, returning
  /// raw execution times (Fig. 2 / Fig. 4 ECCDFs). `first_run` offsets the
  /// deterministic run numbering — run i uses seed mix64(first_run + i,
  /// master_seed) — so sharded measure campaigns can split one logical
  /// sample into contiguous slices whose concatenation is bit-identical to
  /// a single `measure(program, input, total)` call.
  std::vector<double> measure(const ir::Program& program,
                              const ir::InputVector& input, std::size_t runs,
                              std::size_t first_run = 0) const;

  const AnalysisConfig& config() const { return config_; }

private:
  AnalysisConfig config_;
  platform::Machine machine_;
};

}  // namespace mbcr::core
