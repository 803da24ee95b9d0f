#include "mbpta/evt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "mbpta/pwcet.hpp"
#include "util/rng.hpp"

namespace mbcr::mbpta {
namespace {

std::vector<double> exponential_sample(double rate, std::size_t n,
                                       std::uint64_t seed, double shift = 0) {
  Xoshiro256 rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(shift - std::log(1.0 - rng.uniform01()) / rate);
  }
  return xs;
}

TEST(ExpTailFit, RecoversSyntheticRate) {
  // Exponential data: any threshold keeps exponential excesses with the
  // same rate (memorylessness).
  const auto xs = exponential_sample(0.05, 100000, 1, 1000.0);
  const ExpTailFit fit = fit_exponential_tail(xs);
  EXPECT_TRUE(fit.cv_accepted);
  EXPECT_NEAR(fit.rate, 0.05, 0.004);
  EXPECT_GT(fit.n_exceedances, 100u);
}

TEST(ExpTailFit, QuantileInvertsModel) {
  const auto xs = exponential_sample(0.1, 50000, 2);
  const ExpTailFit fit = fit_exponential_tail(xs);
  // P(X > q(p)) == p by construction.
  for (double p : {1e-6, 1e-9, 1e-12}) {
    const double q = fit.quantile(p);
    EXPECT_NEAR(fit.exceedance_prob(q), p, p * 1e-6);
  }
}

TEST(ExpTailFit, QuantileMonotoneInProbability) {
  const auto xs = exponential_sample(0.02, 20000, 3);
  const ExpTailFit fit = fit_exponential_tail(xs);
  double prev = fit.quantile(1e-3);
  for (double p : {1e-6, 1e-9, 1e-12, 1e-15}) {
    const double q = fit.quantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(ExpTailFit, ExtrapolatesAgainstGroundTruth) {
  // Fit on 1e5 points, check the 1e-7 quantile against the analytic value.
  const double rate = 0.03;
  const auto xs = exponential_sample(rate, 100000, 4);
  const ExpTailFit fit = fit_exponential_tail(xs);
  const double truth = -std::log(1e-7) / rate;
  EXPECT_NEAR(fit.quantile(1e-7), truth, 0.12 * truth);
}

TEST(ExpTailFit, DegenerateConstantSample) {
  const std::vector<double> xs(1000, 500.0);
  const ExpTailFit fit = fit_exponential_tail(xs);
  EXPECT_DOUBLE_EQ(fit.quantile(1e-12), 500.0);  // point mass: no tail
}

TEST(ExpTailFit, TinySampleDoesNotCrash) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const ExpTailFit fit = fit_exponential_tail(xs);
  EXPECT_GE(fit.quantile(1e-12), 2.0);
}

TEST(ExpTailFit, HeavyBodyLightTail) {
  // Mixture: uniform body + exponential tail; the CV search must settle in
  // the tail region and still produce a usable (finite, above-max-body)
  // deep quantile.
  Xoshiro256 rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(1000.0 * rng.uniform01());
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(1000.0 - std::log(1.0 - rng.uniform01()) * 30.0);
  }
  const ExpTailFit fit = fit_exponential_tail(xs);
  EXPECT_GT(fit.quantile(1e-12), 1000.0);
  EXPECT_LT(fit.quantile(1e-12), 3000.0);
}

TEST(Gumbel, RecoversSyntheticParameters) {
  // Gumbel(mu=100, beta=10) samples via inverse transform.
  Xoshiro256 rng(6);
  std::vector<double> xs;
  for (int i = 0; i < 200000; ++i) {
    xs.push_back(100.0 - 10.0 * std::log(-std::log(rng.uniform01())));
  }
  // Block maxima of Gumbel are Gumbel with shifted mu: mu' = mu + beta ln B.
  const std::size_t B = 100;
  const GumbelFit fit = fit_gumbel_block_maxima(xs, B);
  EXPECT_NEAR(fit.beta, 10.0, 1.0);
  EXPECT_NEAR(fit.mu, 100.0 + 10.0 * std::log(static_cast<double>(B)), 2.0);
}

TEST(Gumbel, QuantileMonotone) {
  const auto xs = exponential_sample(0.05, 50000, 7);
  const GumbelFit fit = fit_gumbel_block_maxima(xs);
  EXPECT_GT(fit.quantile(1e-9), fit.quantile(1e-6));
}

TEST(Gumbel, TooFewBlocks) {
  const std::vector<double> xs(50, 1.0);
  const GumbelFit fit = fit_gumbel_block_maxima(xs, 100);
  EXPECT_EQ(fit.blocks, 0u);
}

TEST(PwcetCurve, UpperBoundsEmpiricalSample) {
  const auto xs = exponential_sample(0.05, 20000, 8, 2000.0);
  const PwcetCurve curve(xs);
  // At every resolvable probability the pWCET is at least the empirical
  // quantile (the curve never undercuts observations).
  const Eccdf ecc(xs);
  for (double p : {0.1, 0.01, 1e-3, 1e-4}) {
    EXPECT_GE(curve.at(p) * 1.0000001, ecc.value_at_exceedance(p)) << p;
  }
  EXPECT_GE(curve.at(1e-12), ecc.max());
}

TEST(PwcetCurve, CurveSeriesIsMonotone) {
  const auto xs = exponential_sample(0.05, 10000, 9);
  const PwcetCurve curve(xs);
  const auto series = curve.curve(15);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LE(series[i].first, series[i - 1].first);
    EXPECT_GE(series[i].second, series[i - 1].second * 0.999999);
  }
}

TEST(PwcetCurve, EmptySample) {
  const PwcetCurve curve;
  EXPECT_DOUBLE_EQ(curve.at(1e-12), 0.0);
}

TEST(ExpTailFit, SortedEntryPointMatchesUnsorted) {
  const auto xs = exponential_sample(0.05, 20000, 11, 1000.0);
  auto sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const ExpTailFit a = fit_exponential_tail(xs);
  const ExpTailFit b = fit_exponential_tail_sorted(sorted);
  EXPECT_EQ(a.threshold, b.threshold);
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_EQ(a.zeta, b.zeta);
  EXPECT_EQ(a.n_exceedances, b.n_exceedances);
  EXPECT_EQ(a.cv, b.cv);
  EXPECT_EQ(a.cv_accepted, b.cv_accepted);
}

TEST(PwcetCurve, SortedAndCountedProbesMatchFullCurve) {
  // converge_stream's per-delta probe (pwcet_probe on the counts)
  // and its sorting reference (pwcet_probe_sorted) must reproduce the
  // full curve's quantiles bit for bit.
  const auto xs = exponential_sample(0.02, 5000, 12, 2000.0);
  auto sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const PwcetCurve full(xs);
  const Eccdf counted(xs);
  for (const double p : {1e-3, 1e-6, 1e-12}) {
    EXPECT_EQ(pwcet_probe_sorted(sorted, p), full.at(p)) << "p " << p;
    EXPECT_EQ(pwcet_probe(counted, p), full.at(p)) << "p " << p;
  }
  // The curve's counts expand to the sorted sample.
  std::vector<double> expanded;
  for (const Eccdf::Step& step : full.eccdf().steps()) {
    expanded.resize(step.at_or_below, step.value);
  }
  EXPECT_EQ(expanded, sorted);
}

}  // namespace
}  // namespace mbcr::mbpta
