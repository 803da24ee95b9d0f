#include "mbpta/convergence.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mbpta/pwcet.hpp"
#include "util/rng.hpp"

namespace mbcr::mbpta {
namespace {

StreamSampler exponential_sampler(double rate, std::uint64_t seed) {
  auto rng = std::make_shared<Xoshiro256>(seed);
  return [rng, rate](std::vector<double>& sample, std::size_t k) {
    for (std::size_t i = 0; i < k; ++i) {
      sample.push_back(1000.0 - std::log(1.0 - rng->uniform01()) / rate);
    }
  };
}

/// Appends `k` copies of `value`: a degenerate (constant) distribution.
StreamSampler constant_sampler(double value) {
  return [value](std::vector<double>& sample, std::size_t k) {
    sample.resize(sample.size() + k, value);
  };
}

TEST(Convergence, ConvergesOnStationaryDistribution) {
  ConvergenceConfig cfg;
  cfg.max_runs = 100000;
  const ConvergenceResult res =
      converge_stream(exponential_sampler(0.05, 1), cfg);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.runs, cfg.min_runs);
  EXPECT_LE(res.runs, cfg.max_runs);
  EXPECT_EQ(res.sample.size(), res.runs);
}

TEST(Convergence, EstimateNearAnalyticQuantile) {
  ConvergenceConfig cfg;
  cfg.max_runs = 200000;
  cfg.probability = 1e-9;
  const double rate = 0.05;
  const ConvergenceResult res =
      converge_stream(exponential_sampler(rate, 2), cfg);
  ASSERT_TRUE(res.converged);
  const double truth = 1000.0 - std::log(1e-9) / rate;
  EXPECT_NEAR(res.estimates.back(), truth, 0.15 * truth);
}

TEST(Convergence, RespectsMinRuns) {
  ConvergenceConfig cfg;
  cfg.min_runs = 1000;
  const ConvergenceResult res =
      converge_stream(exponential_sampler(0.1, 3), cfg);
  EXPECT_GE(res.runs, 1000u);
}

TEST(Convergence, DegenerateDistributionConvergesAtWindowFill) {
  // A constant distribution converges as soon as the stability window has
  // its `window` estimates (min_runs plus a few growth steps).
  ConvergenceConfig cfg;
  const ConvergenceResult res = converge_stream(constant_sampler(500.0), cfg);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.runs, cfg.min_runs);
  EXPECT_LE(res.runs, 1000u);
}

TEST(Convergence, NonStationarySamplerDoesNotConverge) {
  // Each chunk shifts upward: estimates keep moving; must hit max_runs.
  auto state = std::make_shared<double>(0.0);
  auto rng = std::make_shared<Xoshiro256>(4);
  ConvergenceConfig cfg;
  cfg.max_runs = 5000;
  const ConvergenceResult res = converge_stream(
      [state, rng](std::vector<double>& sample, std::size_t k) {
        for (std::size_t i = 0; i < k; ++i) {
          *state += 1.0;
          sample.push_back(*state + rng->uniform01());
        }
      },
      cfg);
  EXPECT_FALSE(res.converged);
  EXPECT_LE(res.sample.size(), cfg.max_runs);
}

TEST(Convergence, DeterministicGivenSampler) {
  ConvergenceConfig cfg;
  const ConvergenceResult r1 =
      converge_stream(exponential_sampler(0.05, 9), cfg);
  const ConvergenceResult r2 =
      converge_stream(exponential_sampler(0.05, 9), cfg);
  EXPECT_EQ(r1.runs, r2.runs);
  EXPECT_EQ(r1.estimates, r2.estimates);
}

TEST(Convergence, StreamSamplerExhaustionStops) {
  // A stream sampler that stops appending ends the campaign gracefully.
  ConvergenceConfig cfg;
  cfg.max_runs = 50000;
  const std::size_t cap = 450;
  const ConvergenceResult res = converge_stream(
      [cap](std::vector<double>& sample, std::size_t k) {
        const std::size_t room = sample.size() < cap ? cap - sample.size() : 0;
        sample.resize(sample.size() + std::min(k, room), 500.0);
      },
      cfg);
  EXPECT_LE(res.sample.size(), cap);
}

TEST(Convergence, ExhaustedBeforeMinRunsTerminates) {
  // A sampler that dries up below min_runs must still terminate: the
  // driver keeps probing the frozen sample, whose constant estimates fill
  // the stability window.
  ConvergenceConfig cfg;  // min_runs = 300
  const std::size_t cap = 150;
  const ConvergenceResult res = converge_stream(
      [cap](std::vector<double>& sample, std::size_t k) {
        const std::size_t room = sample.size() < cap ? cap - sample.size() : 0;
        sample.resize(sample.size() + std::min(k, room), 700.0);
      },
      cfg);
  EXPECT_EQ(res.sample.size(), cap);
  EXPECT_EQ(res.runs, cap);
  EXPECT_TRUE(res.converged);  // frozen sample -> frozen estimates
  EXPECT_GE(res.estimates.size(), cfg.window);
}

TEST(Convergence, MaxRunsBoundaryIsInclusive) {
  // max_runs == a growth-step landing point: that final sample IS probed
  // (the loop bound is inclusive), and the next step breaks out with
  // converged = false when estimates keep moving.
  auto state = std::make_shared<double>(0.0);
  ConvergenceConfig cfg;
  cfg.max_runs = 400;  // min 300, first step +100 lands exactly on it
  const ConvergenceResult res = converge_stream(
      [state](std::vector<double>& sample, std::size_t k) {
        for (std::size_t i = 0; i < k; ++i) {
          *state += 1.0;
          sample.push_back(*state);
        }
      },
      cfg);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.sample.size(), 400u);
  EXPECT_EQ(res.runs, 400u);
  EXPECT_EQ(res.estimates.size(), 2u);  // probed at 300 and at 400
}

TEST(Convergence, NoConvergenceBeforeWindowFills) {
  // Even perfectly constant estimates cannot satisfy a window they have
  // not filled: with window = 8, at least 8 probes must happen.
  ConvergenceConfig cfg;
  cfg.window = 8;
  const ConvergenceResult res = converge_stream(constant_sampler(500.0), cfg);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.estimates.size(), 8u);
  EXPECT_EQ(res.runs, res.sample.size());
}

TEST(Convergence, WindowToleranceGovernsStability) {
  // Identical noisy sampler, window judged at two tolerances: a generous
  // band converges, a (near-)zero band never does.
  ConvergenceConfig loose;
  loose.tolerance = 10.0;
  loose.max_runs = 50000;
  ConvergenceConfig zero;
  zero.tolerance = 1e-12;
  zero.max_runs = 5000;
  const ConvergenceResult rl =
      converge_stream(exponential_sampler(0.05, 21), loose);
  const ConvergenceResult rz =
      converge_stream(exponential_sampler(0.05, 21), zero);
  EXPECT_TRUE(rl.converged);
  EXPECT_EQ(rl.estimates.size(), loose.window);  // stable at first chance
  EXPECT_FALSE(rz.converged);
}

TEST(Convergence, FinalEstimateMatchesFromScratchRefit) {
  // The incremental sorted-merge probe must equal a full PwcetCurve fit
  // of the final sample, bit for bit.
  ConvergenceConfig cfg;
  const ConvergenceResult res =
      converge_stream(exponential_sampler(0.05, 33), cfg);
  ASSERT_TRUE(res.converged);
  ASSERT_FALSE(res.estimates.empty());
  const PwcetCurve full(res.sample, cfg.evt);
  EXPECT_EQ(res.estimates.back(), full.at(cfg.probability));
}

TEST(Convergence, TighterToleranceNeedsMoreRuns) {
  ConvergenceConfig loose;
  loose.tolerance = 0.2;
  ConvergenceConfig tight;
  tight.tolerance = 0.005;
  tight.max_runs = 300000;
  const auto rl = converge_stream(exponential_sampler(0.02, 5), loose);
  const auto rt = converge_stream(exponential_sampler(0.02, 5), tight);
  EXPECT_LE(rl.runs, rt.runs);
}

}  // namespace
}  // namespace mbcr::mbpta
