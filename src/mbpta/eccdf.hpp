// Empirical complementary cumulative distribution function (the curves of
// the paper's Fig. 2 and the "ground truth" dashed line of Fig. 4).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace mbcr::mbpta {

/// Empirical upper-tail quantile on a raw ascending span: smallest
/// observed value with exceedance probability <= p (the max observation
/// for p below 1/n; 0 for an empty span). The sorting reference that
/// `Eccdf::value_at_exceedance` is held bit-equal to.
double value_at_exceedance_sorted(std::span<const double> sorted, double p);

/// The empirical distribution of a sample in counted form: its distinct
/// values in ascending order, each with the number of observations at or
/// below it. A campaign's execution times are integer cycle counts with
/// few distinct values (15 over 2M bs runs), so the form costs O(d), not
/// O(n). Building it is one counting pass through an open-addressing table
/// keyed on the value, then an LSD radix sort of the d distinct values and
/// a prefix sum: no comparison sort of the sample. -0.0 is folded into
/// +0.0 (they compare equal, so they are one value); samples hold no NaN.
///
/// Every rank-based answer equals the one read off the sorted sample: the
/// observation of rank r is the value whose cumulative count first
/// exceeds r.
class Eccdf {
public:
  /// One distinct value and the observations at or below it.
  struct Step {
    double value = 0.0;
    std::size_t at_or_below = 0;
  };

  Eccdf() = default;
  explicit Eccdf(std::span<const double> sample);

  /// The distribution of both samples together: a two-pointer merge of
  /// their counts. While both sides have values left, the walk reads both
  /// CDFs at each distinct value, stepping over ties at once, exactly as
  /// `ks_statistic_sorted` walks the sorted samples; with `ks_statistic`
  /// set, it also returns their two-sample KS statistic, bit for bit.
  static Eccdf merge(const Eccdf& a, const Eccdf& b,
                     double* ks_statistic = nullptr);

  /// Counts `more` observations into the distribution.
  void add(std::span<const double> more);

  /// P(X > t) in the sample.
  double exceedance_prob(double t) const;

  /// Smallest observed value v with P(X > v) <= p (empirical quantile of
  /// the upper tail); returns the max observation for p below 1/n.
  double value_at_exceedance(double p) const;

  /// The observation of rank `rank` (0-based, ascending); `rank < size()`.
  double value_at_rank(std::size_t rank) const;

  /// `quantile_sorted(sorted sample, q)`: type-7 interpolation between the
  /// observations of the two neighbouring ranks.
  double quantile(double q) const;

  double min() const;
  double max() const;
  std::size_t size() const {
    return steps_.empty() ? 0 : steps_.back().at_or_below;
  }
  std::size_t distinct() const { return steps_.size(); }

  /// The distinct values, ascending, with their cumulative counts.
  std::span<const Step> steps() const { return steps_; }

  /// (value, exceedance probability) curve, thinned to at most
  /// `max_points` points for plotting/CSV export.
  std::vector<std::pair<double, double>> curve(
      std::size_t max_points = 512) const;

private:
  std::vector<Step> steps_;
};

}  // namespace mbcr::mbpta
