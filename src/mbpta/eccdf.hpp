// Empirical complementary cumulative distribution function (the curves of
// the paper's Fig. 2 and the "ground truth" dashed line of Fig. 4).
#pragma once

#include <span>
#include <utility>
#include <vector>

namespace mbcr::mbpta {

/// Empirical upper-tail quantile on a raw ascending span: smallest
/// observed value with exceedance probability <= p (the max observation
/// for p below 1/n; 0 for an empty span). `Eccdf::value_at_exceedance`
/// and the convergence driver's sorted probe both delegate here, so the
/// rank arithmetic exists once.
double value_at_exceedance_sorted(std::span<const double> sorted, double p);

class Eccdf {
public:
  Eccdf() = default;
  explicit Eccdf(std::span<const double> sample);

  /// Adopts a sample that is ALREADY sorted ascending: no copy, no sort.
  /// For equal multisets of values the result is identical to the
  /// sorting constructor — `PwcetCurve` moves its one sorted buffer in.
  static Eccdf from_sorted(std::vector<double> sorted);

  /// P(X > t) in the sample.
  double exceedance_prob(double t) const;

  /// Smallest observed value v with P(X > v) <= p (empirical quantile of
  /// the upper tail); returns the max observation for p below 1/n.
  double value_at_exceedance(double p) const;

  double min() const;
  double max() const;
  std::size_t size() const { return sorted_.size(); }

  /// (value, exceedance probability) curve, thinned to at most
  /// `max_points` points for plotting/CSV export.
  std::vector<std::pair<double, double>> curve(
      std::size_t max_points = 512) const;

  const std::vector<double>& sorted() const { return sorted_; }

private:
  std::vector<double> sorted_;
};

}  // namespace mbcr::mbpta
