// Extreme Value Theory estimators for MBPTA.
//
// Primary estimator (as in the MBPTA literature the paper builds on,
// Abella et al. TODAES'17): exceedances over a high threshold with
// exponential excesses — the coefficient-of-variation (CV) method. For a
// threshold u with exceedance rate zeta_u = N_u / N and exponential
// excesses of rate lambda:
//     P(X > u + y) = zeta_u * exp(-lambda * y)
//     pWCET(p)     = u + ln(zeta_u / p) / lambda          (for p < zeta_u)
// The CV of truly exponential excesses is 1; the fitter raises the
// threshold until the sample CV is inside the confidence band (or data
// runs low), which both selects the tail region and acts as the
// exponentiality test.
//
// A Gumbel block-maxima fit (probability-weighted moments) is provided as
// the alternative estimator used by several MBPTA works.
#pragma once

#include <cstddef>
#include <span>

#include "mbpta/eccdf.hpp"

namespace mbcr::mbpta {

struct EvtConfig {
  double initial_tail_fraction = 0.10;  ///< start threshold quantile: 0.90
  double min_tail_fraction = 0.001;     ///< threshold may rise to the top 0.1%
  std::size_t min_exceedances = 30;
  double cv_band_sigmas = 2.0;  ///< accept |CV-1| <= sigmas/sqrt(Nu)
};

struct ExpTailFit {
  double threshold = 0.0;  ///< u
  double rate = 0.0;       ///< lambda (1 / mean excess)
  double zeta = 0.0;       ///< exceedance probability of u in the sample
  std::size_t n_exceedances = 0;
  std::size_t n_total = 0;
  double cv = 0.0;         ///< CV of the excesses actually used
  bool cv_accepted = false;

  /// Value with exceedance probability `p` under the fitted model.
  double quantile(double p) const;

  /// Model exceedance probability of value `t`.
  double exceedance_prob(double t) const;
};

/// Fits the exponential tail per the CV procedure. Degenerate samples
/// (zero-variance tails) yield rate = +inf handled as a point mass.
ExpTailFit fit_exponential_tail(std::span<const double> sample,
                                const EvtConfig& config = {});

/// Same fit on a sample that is ALREADY sorted ascending: skips the
/// internal `sorted_copy`. The fit depends only on the sample's order
/// statistics, so for equal multisets of values this is bit-identical to
/// `fit_exponential_tail`. With it, the sorting form is the reference the
/// counted fit below is held to.
ExpTailFit fit_exponential_tail_sorted(std::span<const double> sorted,
                                       const EvtConfig& config = {});

/// Same fit on a counted sample (`PwcetCurve` and `converge_stream`'s
/// per-delta probe): thresholds are rank lookups on the counts,
/// and each excess is added once per occurrence, in ascending order, so
/// the tail's mean and CV are bit-identical to the sorted fit's.
ExpTailFit fit_exponential_tail(const Eccdf& eccdf,
                                const EvtConfig& config = {});

struct GumbelFit {
  double mu = 0.0;    ///< location
  double beta = 0.0;  ///< scale
  std::size_t blocks = 0;

  /// Value exceeded with probability `p` *per block* under Gumbel.
  double quantile(double p) const;
};

/// Gumbel fit on block maxima via probability-weighted moments.
GumbelFit fit_gumbel_block_maxima(std::span<const double> sample,
                                  std::size_t block_size = 100);

}  // namespace mbcr::mbpta
