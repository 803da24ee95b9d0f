// pWCET curve: the deliverable of MBPTA (paper Fig. 1(a)).
//
// Combines the empirical distribution (for probabilities the sample can
// resolve) with the fitted exponential tail (for the deep exceedance
// probabilities certification cares about, e.g. 1e-12 per run in the
// paper's Table 1).
#pragma once

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "mbpta/eccdf.hpp"
#include "mbpta/evt.hpp"
#include "mbpta/iid.hpp"

namespace mbcr::mbpta {

class PwcetCurve {
public:
  PwcetCurve() = default;

  /// Fits the curve on `sample` (execution times of one path campaign)
  /// with no sort of the sample: `check_iid_counted` counts the two
  /// run-order halves for the split KS and merges their counts; the tail
  /// is fitted on that counted form, which the ECCDF keeps (O(d) for d
  /// distinct values).
  explicit PwcetCurve(std::span<const double> sample,
                      const EvtConfig& config = {});

  /// pWCET at exceedance probability `p` per run.
  double at(double p) const;

  /// Clamps the curve at a sound architectural ceiling (e.g. the
  /// every-access-misses time of the measured trace): no execution can
  /// ever exceed it, so extrapolating past it is pure pessimism. The
  /// paper leans on this ceiling when discussing ns (Sec. 4.2).
  void set_upper_bound(double bound) { upper_bound_ = bound; }
  double upper_bound() const { return upper_bound_; }

  const Eccdf& eccdf() const { return eccdf_; }
  const ExpTailFit& tail() const { return tail_; }
  const IidReport& iid() const { return iid_; }
  std::size_t sample_size() const { return eccdf_.size(); }

  /// One point of the serialized log-grid curve. `extrapolated` marks
  /// probabilities past the sample's empirical resolution, where the value
  /// comes from the fitted tail model rather than an observation — the
  /// solid/dashed split of the paper's Fig. 4.
  struct CurvePoint {
    double probability = 0;
    double pwcet = 0;
    bool extrapolated = false;
  };

  /// Serialization-grade curve on the log grid (mantissas {1, .5, .2} per
  /// decade down to 1e-max_exp).
  std::vector<CurvePoint> grid(int max_exp = 15) const;

  /// (exceedance probability, pWCET) series on the same grid, for plots.
  std::vector<std::pair<double, double>> curve(int max_exp = 15) const;

private:
  Eccdf eccdf_;
  ExpTailFit tail_;
  IidReport iid_;
  double upper_bound_ = std::numeric_limits<double>::infinity();
};

/// `PwcetCurve(sample).at(p)` (no upper bound) evaluated on the sample's
/// counted form: empirical upper-tail quantile + fitted exponential tail,
/// with no i.i.d. tests. This is `converge_stream`'s per-delta probe on
/// the counts it keeps up to date.
double pwcet_probe(const Eccdf& eccdf, double p, const EvtConfig& config = {});

/// `pwcet_probe` on an already-sorted sample: the sorting reference it is
/// held bit-equal to for equal multisets of values.
double pwcet_probe_sorted(std::span<const double> sorted, double p,
                          const EvtConfig& config = {});

}  // namespace mbcr::mbpta
