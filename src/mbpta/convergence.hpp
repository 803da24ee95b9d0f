// MBPTA convergence: the minimum number of runs after which the pWCET
// estimate is stable (the R_orig / R_pub columns of the paper's Tables 1
// and 2 — "number of runs required for MBPTA convergence").
//
// Standard procedure from the MBPTA literature: grow the sample in deltas,
// re-estimate pWCET at the certification probability each time, and stop
// when the last `window` estimates stay within `tolerance` of their
// median.
//
// Refits are incremental: converge_stream keeps the growing sample in
// counted form (`Eccdf`: each delta counts only the new runs and merges
// their counts in) and probes it through `pwcet_probe`, so a refit needs no
// sort — bit-identical to `pwcet_probe_sorted` on a sorted copy.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "mbpta/evt.hpp"

namespace mbcr::mbpta {

struct ConvergenceConfig {
  std::size_t min_runs = 300;   ///< MBPTA's customary floor
  std::size_t delta = 100;      ///< growth step
  std::size_t window = 5;       ///< consecutive stable estimates required
  double tolerance = 0.03;      ///< relative deviation from window median
  double probability = 1e-12;   ///< pWCET probe probability
  std::size_t max_runs = 200'000;
  EvtConfig evt;
};

struct ConvergenceResult {
  std::size_t runs = 0;             ///< first stable sample size
  bool converged = false;
  std::vector<double> estimates;    ///< pWCET probe per delta
  std::vector<double> sample;       ///< all execution times collected
};

/// Streaming sampler (campaign engine v2): `sampler(sample, k)` appends
/// `k` fresh execution times directly onto `sample` — the growing sample
/// IS the campaign sink, so extending the campaign never copies what was
/// already measured. `CampaignSampler::append_to` satisfies this shape.
/// A sampler that appends nothing signals exhaustion (tests only).
using StreamSampler =
    std::function<void(std::vector<double>& sample, std::size_t count)>;

ConvergenceResult converge_stream(const StreamSampler& sampler,
                                  const ConvergenceConfig& config = {});

}  // namespace mbcr::mbpta
