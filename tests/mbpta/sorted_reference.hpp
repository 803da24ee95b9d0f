// The sorting reference for the counted ECCDF: every answer of an `Eccdf`
// must equal, bit for bit, the one read off the sorted sample.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mbpta/eccdf.hpp"
#include "util/stats.hpp"

namespace mbcr::mbpta::reference {

inline ::testing::AssertionResult bits_equal(double got, double want) {
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << got << " != " << want << " (bit patterns differ)";
}

/// The sample with -0.0 folded into +0.0, as the counted form holds it.
/// The order statistics of a sample holding both zeros are otherwise not
/// fixed: a sort may place either zero at a given rank.
inline std::vector<double> folded_copy(std::span<const double> sample) {
  std::vector<double> out(sample.begin(), sample.end());
  for (double& x : out) x = x == 0.0 ? 0.0 : x;
  return out;
}

/// The counted form expanded back into the ascending sample.
inline std::vector<double> expand(const Eccdf& eccdf) {
  std::vector<double> out;
  out.reserve(eccdf.size());
  for (const Eccdf::Step& step : eccdf.steps()) {
    out.resize(step.at_or_below, step.value);
  }
  return out;
}

/// The thinned curve the sorted-buffer ECCDF drew: every `stride`-th
/// order statistic, then the maximum if it was not drawn.
inline std::vector<std::pair<double, double>> curve(
    std::span<const double> sorted, std::size_t max_points) {
  std::vector<std::pair<double, double>> out;
  if (sorted.empty() || max_points == 0) return out;
  const std::size_t stride =
      std::max<std::size_t>(1, sorted.size() / max_points);
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); i += stride) {
    out.emplace_back(sorted[i], (n - static_cast<double>(i) - 1.0) / n);
  }
  if (out.back().first != sorted.back()) out.emplace_back(sorted.back(), 0.0);
  return out;
}

/// P(X > t) read off the sorted sample.
inline double exceedance_prob(std::span<const double> sorted, double t) {
  if (sorted.empty()) return 0.0;
  const auto above = std::upper_bound(sorted.begin(), sorted.end(), t);
  return static_cast<double>(sorted.end() - above) /
         static_cast<double>(sorted.size());
}

inline void expect_curves_equal(
    const std::vector<std::pair<double, double>>& got,
    const std::vector<std::pair<double, double>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(bits_equal(got[i].first, want[i].first)) << "point " << i;
    EXPECT_TRUE(bits_equal(got[i].second, want[i].second)) << "point " << i;
  }
}

/// Every query of `eccdf`, the counted form of `sample`, against the
/// sorted sample: size, min, max, the expanded counts, the upper-tail
/// quantile over the pWCET grid, P(X > t) at every distinct value and
/// between them, and the thinned curves.
inline void expect_eccdf_matches_sorted(const Eccdf& eccdf,
                                        std::span<const double> sample) {
  const std::vector<double> sorted = sorted_copy(folded_copy(sample));
  ASSERT_EQ(eccdf.size(), sorted.size());
  EXPECT_EQ(expand(eccdf), sorted);
  EXPECT_TRUE(bits_equal(eccdf.min(), sorted.empty() ? 0.0 : sorted.front()));
  EXPECT_TRUE(bits_equal(eccdf.max(), sorted.empty() ? 0.0 : sorted.back()));

  std::vector<double> probabilities = {0.0, 0.5, 0.9, 1.0};
  for (int e = 1; e <= 15; ++e) {
    for (const double mantissa : {1.0, 0.5, 0.2}) {
      probabilities.push_back(mantissa * std::pow(10.0, -e));
    }
  }
  for (const double p : probabilities) {
    EXPECT_TRUE(bits_equal(eccdf.value_at_exceedance(p),
                           value_at_exceedance_sorted(sorted, p)))
        << "p " << p;
  }

  const std::span<const Eccdf::Step> steps = eccdf.steps();
  std::vector<double> probes;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    probes.push_back(steps[i].value);
    if (i + 1 < steps.size()) {
      probes.push_back(steps[i].value +
                       (steps[i + 1].value - steps[i].value) / 2.0);
    }
  }
  if (!steps.empty()) {
    probes.push_back(steps.front().value - 1.0);
    probes.push_back(steps.back().value + 1.0);
  }
  std::size_t mismatches = 0;
  for (const double t : probes) {
    if (!bits_equal(eccdf.exceedance_prob(t), exceedance_prob(sorted, t))) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "exceedance_prob mismatches over "
                            << probes.size() << " probes";

  expect_curves_equal(eccdf.curve(512), curve(sorted, 512));
  expect_curves_equal(eccdf.curve(7), curve(sorted, 7));
}

}  // namespace mbcr::mbpta::reference
