#include "mbpta/eccdf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "sorted_reference.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mbcr::mbpta {
namespace {

TEST(Eccdf, ExceedanceProbability) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const Eccdf e(xs);
  EXPECT_DOUBLE_EQ(e.exceedance_prob(0.5), 1.0);
  EXPECT_DOUBLE_EQ(e.exceedance_prob(5.0), 0.5);
  EXPECT_DOUBLE_EQ(e.exceedance_prob(10.0), 0.0);
  EXPECT_DOUBLE_EQ(e.exceedance_prob(9.5), 0.1);
}

TEST(Eccdf, ValueAtExceedance) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const Eccdf e(xs);
  EXPECT_DOUBLE_EQ(e.value_at_exceedance(0.5), 6.0);
  EXPECT_DOUBLE_EQ(e.value_at_exceedance(0.1), 10.0);
  // Deeper than the sample resolves: the max observation.
  EXPECT_DOUBLE_EQ(e.value_at_exceedance(1e-9), 10.0);
}

TEST(Eccdf, MinMaxAndSize) {
  const std::vector<double> xs{5, 3, 8};
  const Eccdf e(xs);
  EXPECT_DOUBLE_EQ(e.min(), 3.0);
  EXPECT_DOUBLE_EQ(e.max(), 8.0);
  EXPECT_EQ(e.size(), 3u);
}

TEST(Eccdf, EmptySampleSafe) {
  const Eccdf e;
  EXPECT_DOUBLE_EQ(e.exceedance_prob(1.0), 0.0);
  EXPECT_DOUBLE_EQ(e.value_at_exceedance(0.5), 0.0);
  EXPECT_TRUE(e.curve().empty());
}

TEST(Eccdf, CurveIsMonotone) {
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) xs.push_back(static_cast<double>(i % 997));
  const Eccdf e(xs);
  const auto curve = e.curve(100);
  ASSERT_GE(curve.size(), 2u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_LE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 0.0);
}

TEST(Eccdf, CountsExpandToTheSortedSample) {
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(static_cast<double>((i * 7919) % 1009));
  }
  const Eccdf counted(xs);
  const std::vector<double> sorted = sorted_copy(xs);
  EXPECT_EQ(reference::expand(counted), sorted);
  EXPECT_EQ(counted.distinct(), 1009u);
  EXPECT_DOUBLE_EQ(counted.exceedance_prob(500.0),
                   reference::exceedance_prob(sorted, 500.0));
  EXPECT_DOUBLE_EQ(counted.value_at_exceedance(1e-3),
                   value_at_exceedance_sorted(sorted, 1e-3));
}

TEST(Eccdf, MatchesTheSortedSampleBitForBit) {
  Xoshiro256 rng(5);
  std::vector<std::vector<double>> samples = {{}, {42.0}, {7.0, 3.0}};
  for (const std::size_t n : {39u, 40u, 41u, 1001u}) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.uniform01());
    samples.push_back(xs);
  }
  samples.emplace_back(1001, 777.0);
  std::vector<double> tied;
  for (std::size_t i = 0; i < 1001; ++i) {
    tied.push_back(500.0 + 100.0 * static_cast<double>(rng.uniform(3)));
  }
  samples.push_back(tied);
  // Negative values sort below the zeros, and both zeros are one value.
  const double levels[] = {-2.0, -0.0, 0.0, 3.0};
  std::vector<double> signed_zeros;
  for (std::size_t i = 0; i < 1001; ++i) {
    signed_zeros.push_back(levels[rng.uniform(4)]);
  }
  samples.push_back(signed_zeros);
  for (const std::vector<double>& xs : samples) {
    SCOPED_TRACE("n = " + std::to_string(xs.size()));
    reference::expect_eccdf_matches_sorted(Eccdf(xs), xs);
  }
}

TEST(Eccdf, MergeAndAddCountBothSamples) {
  Xoshiro256 rng(9);
  std::vector<double> xs;
  for (std::size_t i = 0; i < 3000; ++i) {
    xs.push_back(static_cast<double>(rng.uniform(200)));
  }
  const std::span<const double> all(xs);
  const Eccdf first(all.first(1000));
  const Eccdf second(all.subspan(1000));
  double ks = -1.0;
  const Eccdf merged = Eccdf::merge(first, second, &ks);
  reference::expect_eccdf_matches_sorted(merged, xs);
  EXPECT_TRUE(reference::bits_equal(
      ks, ks_statistic(all.first(1000), all.subspan(1000))));

  Eccdf grown;
  for (std::size_t from = 0; from < xs.size(); from += 700) {
    grown.add(all.subspan(from, std::min<std::size_t>(700, xs.size() - from)));
  }
  EXPECT_EQ(reference::expand(grown), reference::expand(merged));
}

TEST(Eccdf, CurveThinning) {
  std::vector<double> xs(100000, 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  const Eccdf e(xs);
  EXPECT_LE(e.curve(128).size(), 130u);
}

}  // namespace
}  // namespace mbcr::mbpta
