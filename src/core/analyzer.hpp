// The paper's overall application process (Fig. 3):
//
//   P_orig --PUB--> P_pub --trace(input j)--> TAC --> R_pub+tac
//        --campaign(R runs)--> execution times --MBPTA--> pWCET
//
// plus the two baselines the evaluation compares against: plain MBPTA on
// the original program (R_orig) and PUB-only (R_pub = MBPTA convergence on
// the pubbed program, without TAC's representativeness runs).
#pragma once

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
  /// program; the building block of the two entry points above. Throws
  /// std::invalid_argument, naming the flags that size the campaign, when
  /// the convergence or TAC sample cannot be allocated.
  PathAnalysis analyze_program(const ir::Program& program,
                               const ir::InputVector& input,
                               bool with_tac) const;

  /// Ground-truth style campaign: N runs of the program as-is, returning
  /// raw execution times (Fig. 2 / Fig. 4 ECCDFs). `first_run` offsets the
  /// deterministic run numbering — run i uses seed mix64(first_run + i,
  /// master_seed) — so sharded measure campaigns can split one logical
  /// sample into contiguous slices whose concatenation is bit-identical to
  /// a single `measure(program, input, total)` call. Throws
  /// std::invalid_argument when the sample cannot be allocated.
  std::vector<double> measure(const ir::Program& program,
                              const ir::InputVector& input, std::size_t runs,
                              std::size_t first_run = 0) const;

  const AnalysisConfig& config() const { return config_; }

private:
  AnalysisConfig config_;
  platform::Machine machine_;
};

}  // namespace mbcr::core
