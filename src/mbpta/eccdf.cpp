#include "mbpta/eccdf.hpp"

#include <algorithm>
#include <utility>

#include "util/stats.hpp"

namespace mbcr::mbpta {

Eccdf::Eccdf(std::span<const double> sample)
    : sorted_(sorted_copy(sample)) {}

Eccdf Eccdf::from_sorted(std::vector<double> sorted) {
  Eccdf out;
  out.sorted_ = std::move(sorted);
  return out;
}

double Eccdf::exceedance_prob(double t) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), t);
  return static_cast<double>(sorted_.end() - it) /
         static_cast<double>(sorted_.size());
}

double value_at_exceedance_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  // Rank r such that (n - r)/n <= p, i.e. r >= n(1-p).
  auto rank = static_cast<std::size_t>(std::max(0.0, n * (1.0 - p)));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

double Eccdf::value_at_exceedance(double p) const {
  return value_at_exceedance_sorted(sorted_, p);
}

double Eccdf::min() const { return sorted_.empty() ? 0.0 : sorted_.front(); }
double Eccdf::max() const { return sorted_.empty() ? 0.0 : sorted_.back(); }

std::vector<std::pair<double, double>> Eccdf::curve(
    std::size_t max_points) const {
  std::vector<std::pair<double, double>> out;
  if (sorted_.empty() || max_points == 0) return out;
  const std::size_t stride = std::max<std::size_t>(1, sorted_.size() / max_points);
  const auto n = static_cast<double>(sorted_.size());
  for (std::size_t i = 0; i < sorted_.size(); i += stride) {
    out.emplace_back(sorted_[i], (n - static_cast<double>(i) - 1.0) / n);
  }
  if (out.empty() || out.back().first != sorted_.back()) {
    out.emplace_back(sorted_.back(), 0.0);
  }
  return out;
}

}  // namespace mbcr::mbpta
