// PwcetCurve's one-sort fit (sorted halves -> split KS -> merge -> tail
// fit, ECCDF and runs-test median) against the free functions that each
// sort their own copy: every field must be bit-identical.
#include "mbpta/pwcet.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/interp.hpp"
#include "platform/campaign.hpp"
#include "suite/malardalen.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mbcr::mbpta {
namespace {

::testing::AssertionResult bits_equal(double got, double want) {
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << got << " != " << want << " (bit patterns differ)";
}

/// check_iid's contract rebuilt from the independently sorting tests.
IidReport reference_iid(std::span<const double> x, double alpha = 0.01) {
  IidReport want;
  if (x.size() < 40) {
    want.independent = true;
    want.identically_distributed = true;
    return want;
  }
  const std::size_t half = x.size() / 2;
  want.runs_test_p = runs_test_pvalue(x);
  want.ljung_box_p = ljung_box_pvalue(x, 10);
  want.ks_split_p = ks_pvalue(x.first(half), x.subspan(half));
  want.independent = want.runs_test_p > alpha && want.ljung_box_p > alpha;
  want.identically_distributed = want.ks_split_p > alpha;
  return want;
}

void expect_matches_free_functions(const std::vector<double>& x,
                                   const std::string& label) {
  SCOPED_TRACE(label + ", n = " + std::to_string(x.size()));
  const PwcetCurve curve(x);

  const IidReport want = reference_iid(x);
  const IidReport& got = curve.iid();
  EXPECT_TRUE(bits_equal(got.runs_test_p, want.runs_test_p)) << "runs test";
  EXPECT_TRUE(bits_equal(got.ljung_box_p, want.ljung_box_p)) << "Ljung-Box";
  EXPECT_TRUE(bits_equal(got.ks_split_p, want.ks_split_p)) << "split KS";
  EXPECT_EQ(got.independent, want.independent);
  EXPECT_EQ(got.identically_distributed, want.identically_distributed);

  const ExpTailFit tail = fit_exponential_tail(x);
  EXPECT_TRUE(bits_equal(curve.tail().threshold, tail.threshold));
  EXPECT_TRUE(bits_equal(curve.tail().rate, tail.rate));
  EXPECT_TRUE(bits_equal(curve.tail().zeta, tail.zeta));
  EXPECT_EQ(curve.tail().n_exceedances, tail.n_exceedances);
  EXPECT_EQ(curve.tail().n_total, tail.n_total);
  EXPECT_TRUE(bits_equal(curve.tail().cv, tail.cv));
  EXPECT_EQ(curve.tail().cv_accepted, tail.cv_accepted);

  const Eccdf eccdf(x);
  ASSERT_EQ(curve.eccdf().size(), eccdf.size());
  for (const PwcetCurve::CurvePoint& point : curve.grid()) {
    EXPECT_TRUE(bits_equal(curve.eccdf().value_at_exceedance(point.probability),
                           eccdf.value_at_exceedance(point.probability)))
        << "p " << point.probability;
  }
  EXPECT_TRUE(bits_equal(curve.eccdf().min(), eccdf.min()));
  EXPECT_TRUE(bits_equal(curve.eccdf().max(), eccdf.max()));
}

/// Positive, continuous, with the second half drifting upward so the split
/// KS p-value is neither 0 nor clamped at 1 for mid-sized samples.
std::vector<double> drifting_sample(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) {
    const double drift = i >= n / 2 ? 0.15 : 0.0;
    xs.push_back(1000.0 + 100.0 * (rng.uniform01() + drift));
  }
  return xs;
}

TEST(PwcetFit, OneSortMatchesSortingFreeFunctionsAcrossSizes) {
  for (const std::size_t n : {0u, 1u, 2u, 39u, 40u, 41u, 1001u}) {
    expect_matches_free_functions(drifting_sample(n, 100 + n), "drifting");
  }
}

TEST(PwcetFit, OneSortMatchesOnConstantSample) {
  // Ljung-Box's den == 0 branch, runs test with every value at the median.
  expect_matches_free_functions(std::vector<double>(1001, 777.0), "constant");
}

TEST(PwcetFit, OneSortMatchesWithManyValuesTiedAtTheMedian) {
  // Three discrete levels with the middle one holding the median: the
  // runs test drops every tie, the KS steps over long plateaus.
  Xoshiro256 rng(7);
  for (const std::size_t n : {41u, 1001u, 20000u}) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.uniform01();
      xs.push_back(u < 0.3 ? 500.0 : (u < 0.8 ? 600.0 : 700.0));
    }
    expect_matches_free_functions(xs, "tied");
  }
}

TEST(PwcetFit, OneSortMatchesOnAMillionRunBsCampaign) {
  const auto bs = suite::make_bs();
  const CompactTrace trace = CompactTrace::from(
      ir::lower_and_execute(bs.program, bs.default_input).trace);
  const platform::Machine machine;
  const std::vector<double> sample =
      platform::run_campaign(machine, trace, 1'000'000, {});
  expect_matches_free_functions(sample, "bs campaign");
}

}  // namespace
}  // namespace mbcr::mbpta
