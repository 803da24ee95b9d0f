#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace mbcr {
namespace {

TEST(Stats, MeanVarianceKnownValues) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, EmptyAndSingletonAreSafe) {
  const std::vector<double> empty;
  const std::vector<double> one{3.0};
  EXPECT_EQ(mean(empty), 0.0);
  EXPECT_EQ(variance(empty), 0.0);
  EXPECT_EQ(variance(one), 0.0);
  EXPECT_EQ(quantile(empty, 0.5), 0.0);
  EXPECT_EQ(quantile(one, 0.99), 3.0);
}

TEST(Stats, CoefficientOfVariationOfExponentialIsOne) {
  Xoshiro256 rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 200000; ++i) {
    xs.push_back(-std::log(1.0 - rng.uniform01()));
  }
  EXPECT_NEAR(coefficient_of_variation(xs), 1.0, 0.02);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.1), 14.0);  // type-7 interpolation
}

TEST(Stats, QuantileUnsortedInput) {
  const std::vector<double> xs{50, 10, 40, 20, 30};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 30.0);
}

TEST(Stats, KsStatisticIdenticalSamplesIsZero) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(ks_statistic(xs, xs), 0.0);
}

TEST(Stats, KsStatisticDisjointSamplesIsOne) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{10, 11, 12};
  EXPECT_DOUBLE_EQ(ks_statistic(a, b), 1.0);
}

TEST(Stats, KsPvalueAcceptsSameDistribution) {
  Xoshiro256 rng(21);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 4000; ++i) a.push_back(rng.uniform01());
  for (int i = 0; i < 4000; ++i) b.push_back(rng.uniform01());
  EXPECT_GT(ks_pvalue(a, b), 0.01);
}

TEST(Stats, KsPvalueRejectsShiftedDistribution) {
  Xoshiro256 rng(22);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 4000; ++i) a.push_back(rng.uniform01());
  for (int i = 0; i < 4000; ++i) b.push_back(rng.uniform01() + 0.2);
  EXPECT_LT(ks_pvalue(a, b), 1e-6);
}

TEST(Stats, RunsTestAcceptsIndependentData) {
  Xoshiro256 rng(33);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.uniform01());
  EXPECT_GT(runs_test_pvalue(xs), 0.01);
}

TEST(Stats, RunsTestRejectsTrend) {
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(static_cast<double>(i));
  EXPECT_LT(runs_test_pvalue(xs), 1e-6);
}

TEST(Stats, LjungBoxRejectsAutocorrelatedSeries) {
  Xoshiro256 rng(44);
  std::vector<double> xs{0.0};
  for (int i = 1; i < 5000; ++i) {
    xs.push_back(0.8 * xs.back() + rng.uniform01());  // AR(1)
  }
  EXPECT_LT(ljung_box_pvalue(xs, 10), 1e-6);
}

TEST(Stats, LjungBoxAcceptsWhiteNoise) {
  Xoshiro256 rng(45);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.uniform01());
  EXPECT_GT(ljung_box_pvalue(xs, 10), 0.01);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Ljung-Box Q rebuilt lag by lag from the per-lag definition.
double ljung_box_from_autocorrelation(std::span<const double> xs,
                                      std::size_t lags) {
  const auto n = static_cast<double>(xs.size());
  if (xs.size() < 3 * lags || lags == 0) return 1.0;
  double q = 0.0;
  for (std::size_t h = 1; h <= lags; ++h) {
    const double rho = autocorrelation(xs, h);
    q += rho * rho / (n - static_cast<double>(h));
  }
  q *= n * (n + 2.0);
  return chi2_sf(q, lags);
}

/// The textbook runs test: a sign vector with ties dropped, then counts.
double runs_test_with_sign_vector(std::span<const double> xs) {
  if (xs.size() < 20) return 1.0;
  const double med = quantile(xs, 0.5);
  std::vector<int> signs;
  for (double x : xs) {
    if (x > med) {
      signs.push_back(1);
    } else if (x < med) {
      signs.push_back(0);
    }
  }
  const auto n = static_cast<double>(signs.size());
  if (n < 20) return 1.0;
  double n1 = 0.0;
  for (int s : signs) n1 += s;
  const double n0 = n - n1;
  if (n0 == 0.0 || n1 == 0.0) return 1.0;
  double runs = 1.0;
  for (std::size_t i = 1; i < signs.size(); ++i) {
    if (signs[i] != signs[i - 1]) runs += 1.0;
  }
  const double mu = 2.0 * n0 * n1 / n + 1.0;
  const double var = 2.0 * n0 * n1 * (2.0 * n0 * n1 - n) / (n * n * (n - 1.0));
  if (var <= 0.0) return 1.0;
  const double z = (runs - mu) / std::sqrt(var);
  return 2.0 * (1.0 - normal_cdf(std::abs(z)));
}

std::vector<std::vector<double>> identity_samples() {
  std::vector<std::vector<double>> out;
  Xoshiro256 rng(91);
  std::vector<double> ar{0.0};
  for (int i = 1; i < 3000; ++i) ar.push_back(0.5 * ar.back() + rng.uniform01());
  out.push_back(ar);
  std::vector<double> tied;
  for (int i = 0; i < 2001; ++i) {
    const double u = rng.uniform01();
    tied.push_back(u < 0.3 ? 1.0 : (u < 0.8 ? 2.0 : 3.0));
  }
  out.push_back(tied);
  out.push_back(std::vector<double>(500, 4.0));  // den == 0
  out.push_back({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29});  // < 3*10
  return out;
}

TEST(Stats, OnePassLjungBoxIsBitIdenticalToPerLagAutocorrelation) {
  for (const std::vector<double>& xs : identity_samples()) {
    for (const std::size_t lags : {1u, 10u}) {
      EXPECT_TRUE(same_bits(ljung_box_pvalue(xs, lags),
                            ljung_box_from_autocorrelation(xs, lags)))
          << "n " << xs.size() << " lags " << lags;
    }
  }
  // Fewer than 3 * lags values: no test, p = 1.
  const std::vector<double> short_series{1, 5, 2, 8, 3};
  EXPECT_EQ(ljung_box_pvalue(short_series, 2), 1.0);
  EXPECT_TRUE(same_bits(ljung_box_pvalue(short_series, 2),
                        ljung_box_from_autocorrelation(short_series, 2)));
}

TEST(Stats, OnePassRunsTestIsBitIdenticalToSignVectorForm) {
  for (const std::vector<double>& xs : identity_samples()) {
    const double want = runs_test_with_sign_vector(xs);
    EXPECT_TRUE(same_bits(runs_test_pvalue(xs), want)) << "n " << xs.size();
    EXPECT_TRUE(same_bits(runs_test_pvalue_at(xs, quantile(xs, 0.5)), want))
        << "n " << xs.size();
  }
}

TEST(Stats, SortedKsEntryPointsMatchUnsortedForms) {
  for (const std::vector<double>& xs : identity_samples()) {
    const std::span<const double> all(xs);
    const std::span<const double> a = all.first(xs.size() / 3);
    const std::span<const double> b = all.subspan(xs.size() / 3);
    const std::vector<double> sa = sorted_copy(a);
    const std::vector<double> sb = sorted_copy(b);
    EXPECT_TRUE(same_bits(ks_statistic_sorted(sa, sb), ks_statistic(a, b)));
    EXPECT_TRUE(same_bits(ks_pvalue_sorted(sa, sb), ks_pvalue(a, b)));
  }
}

TEST(Stats, NormalCdfKnownPoints) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-6);
}

TEST(Stats, Chi2SurvivalKnownPoints) {
  // P(X >= 3.841) with 1 dof ~ 0.05; P(X >= 18.307) with 10 dof ~ 0.05.
  EXPECT_NEAR(chi2_sf(3.841, 1), 0.05, 0.001);
  EXPECT_NEAR(chi2_sf(18.307, 10), 0.05, 0.001);
  EXPECT_DOUBLE_EQ(chi2_sf(0.0, 5), 1.0);
}

TEST(Stats, AutocorrelationOfConstantIsZero) {
  const std::vector<double> xs(100, 3.0);
  EXPECT_DOUBLE_EQ(autocorrelation(xs, 1), 0.0);
}

TEST(Stats, AutocorrelationLagOneOfAlternating) {
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(i % 2 ? 1.0 : -1.0);
  EXPECT_NEAR(autocorrelation(xs, 1), -1.0, 0.01);
}

TEST(Stats, CountExceedances) {
  const std::vector<double> xs{1, 5, 3, 8, 2};
  EXPECT_EQ(count_exceedances(xs, 2.5), 3u);
  EXPECT_EQ(count_exceedances(xs, 8.0), 0u);
  EXPECT_EQ(count_exceedances(xs, 0.0), 5u);
}

}  // namespace
}  // namespace mbcr
