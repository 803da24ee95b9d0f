#include "mbpta/convergence.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mbpta/pwcet.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

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
  // The incremental counted probe must equal a full PwcetCurve fit
  // of the final sample, bit for bit.
  ConvergenceConfig cfg;
  const ConvergenceResult res =
      converge_stream(exponential_sampler(0.05, 33), cfg);
  ASSERT_TRUE(res.converged);
  ASSERT_FALSE(res.estimates.empty());
  const PwcetCurve full(res.sample, cfg.evt);
  EXPECT_EQ(res.estimates.back(), full.at(cfg.probability));
}

/// Runs `sampler` through `converge_stream` and holds every estimate to
/// the sorting reference on the sample prefix that refit saw.
void expect_every_estimate_matches_sorted_probe(const StreamSampler& sampler,
                                                const ConvergenceConfig& cfg) {
  std::vector<std::size_t> grown_to;  // sample size after each growth
  const ConvergenceResult res = converge_stream(
      [&](std::vector<double>& sample, std::size_t k) {
        sampler(sample, k);
        grown_to.push_back(sample.size());
      },
      cfg);
  ASSERT_EQ(res.estimates.size(), grown_to.size());
  for (std::size_t i = 0; i < res.estimates.size(); ++i) {
    const std::span<const double> prefix(res.sample.data(), grown_to[i]);
    const double want =
        pwcet_probe_sorted(sorted_copy(prefix), cfg.probability, cfg.evt);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.estimates[i]),
              std::bit_cast<std::uint64_t>(want))
        << "refit " << i << " on " << grown_to[i] << " runs: "
        << res.estimates[i] << " != " << want;
  }
}

TEST(Convergence, EveryEstimateMatchesTheSortedProbeOnItsPrefix) {
  ConvergenceConfig cfg;
  cfg.max_runs = 20000;
  cfg.tolerance = 0.001;  // never stable: every growth step is refit
  expect_every_estimate_matches_sorted_probe(exponential_sampler(0.05, 21),
                                             cfg);
  // Few distinct values, as a campaign's cycle counts have: the counts
  // merged per delta carry long ties.
  auto rng = std::make_shared<Xoshiro256>(22);
  expect_every_estimate_matches_sorted_probe(
      [rng](std::vector<double>& sample, std::size_t k) {
        for (std::size_t i = 0; i < k; ++i) {
          const auto level = static_cast<double>(rng->uniform(15));
          sample.push_back(400.0 + 10.0 * level);
        }
      },
      cfg);
}

TEST(Convergence, ZeroDeltaOnAnEmptyStartStillGrows) {
  // The step was max(delta, n/5) = 0 here, and the refit loop spun forever
  // without drawing a run.
  ConvergenceConfig cfg;
  cfg.min_runs = 0;
  cfg.delta = 0;
  cfg.max_runs = 2000;
  const ConvergenceResult res =
      converge_stream(exponential_sampler(0.05, 23), cfg);
  EXPECT_GT(res.sample.size(), 0u);
  EXPECT_LE(res.sample.size(), cfg.max_runs);
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
