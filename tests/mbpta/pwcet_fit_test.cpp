// PwcetCurve's counted fit (half counts -> merge with the split KS ->
// tail fit, ECCDF and runs-test median on the counts) against the free
// functions that each sort their own copy: every field must be
// bit-identical.
#include "mbpta/pwcet.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ir/interp.hpp"
#include "platform/campaign.hpp"
#include "sorted_reference.hpp"
#include "suite/malardalen.hpp"
#include "util/rng.hpp"

namespace mbcr::mbpta {
namespace {

using reference::bits_equal;

void expect_matches_free_functions(const std::vector<double>& x,
                                   const std::string& label) {
  SCOPED_TRACE(label + ", n = " + std::to_string(x.size()));
  const PwcetCurve curve(x);

  const IidReport want = check_iid(x);
  const IidReport& got = curve.iid();
  EXPECT_TRUE(bits_equal(got.runs_test_p, want.runs_test_p)) << "runs test";
  EXPECT_TRUE(bits_equal(got.ljung_box_p, want.ljung_box_p)) << "Ljung-Box";
  EXPECT_TRUE(bits_equal(got.ks_split_p, want.ks_split_p)) << "split KS";
  EXPECT_EQ(got.independent, want.independent);
  EXPECT_EQ(got.identically_distributed, want.identically_distributed);

  const ExpTailFit tail = fit_exponential_tail(reference::folded_copy(x));
  EXPECT_TRUE(bits_equal(curve.tail().threshold, tail.threshold));
  EXPECT_TRUE(bits_equal(curve.tail().rate, tail.rate));
  EXPECT_TRUE(bits_equal(curve.tail().zeta, tail.zeta));
  EXPECT_EQ(curve.tail().n_exceedances, tail.n_exceedances);
  EXPECT_EQ(curve.tail().n_total, tail.n_total);
  EXPECT_TRUE(bits_equal(curve.tail().cv, tail.cv));
  EXPECT_EQ(curve.tail().cv_accepted, tail.cv_accepted);

  reference::expect_eccdf_matches_sorted(curve.eccdf(), x);
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

TEST(PwcetFit, CountedMatchesSortingFreeFunctionsAcrossSizes) {
  for (const std::size_t n : {0u, 1u, 2u, 39u, 40u, 41u, 1001u}) {
    expect_matches_free_functions(drifting_sample(n, 100 + n), "drifting");
  }
}

TEST(PwcetFit, CountedMatchesOnConstantSample) {
  // Ljung-Box's den == 0 branch, runs test with every value at the median.
  expect_matches_free_functions(std::vector<double>(1001, 777.0), "constant");
}

TEST(PwcetFit, CountedMatchesWithManyValuesTiedAtTheMedian) {
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
  // Ties at values whose excesses are not exact in binary: summing an
  // excess once per occurrence and multiplying it by its count round
  // differently, so only the former matches the sorted fit's mean and CV.
  std::vector<double> xs;
  for (std::size_t i = 0; i < 20000; ++i) {
    xs.push_back(0.1 * static_cast<double>(1000 + rng.uniform(7)) +
                 (rng.uniform(50) == 0 ? 3.3 : 0.0));
  }
  expect_matches_free_functions(xs, "tied, inexact excesses");
}

TEST(PwcetFit, CountedMatchesOnAMillionDistinctValues) {
  // The counted form's worst case: every value distinct, d = n.
  const std::vector<double> xs = drifting_sample(1'000'000, 11);
  expect_matches_free_functions(xs, "all distinct");
  EXPECT_EQ(PwcetCurve(xs).eccdf().distinct(), xs.size());
}

TEST(PwcetFit, CountedFoldsBothZerosIntoOneValue) {
  // -0.0 == +0.0: one value, held as +0.0, at both halves and the merge.
  Xoshiro256 rng(3);
  const double levels[] = {-1.0, -0.0, 0.0, 1.0, 2.5};
  std::vector<double> xs;
  for (std::size_t i = 0; i < 1001; ++i) {
    xs.push_back(levels[rng.uniform(5)]);
  }
  expect_matches_free_functions(xs, "signed zeros");
  const PwcetCurve curve(xs);
  ASSERT_EQ(curve.eccdf().distinct(), 4u);
  EXPECT_TRUE(bits_equal(curve.eccdf().steps()[1].value, 0.0));
}

TEST(PwcetFit, CountedMatchesOnAMillionRunBsCampaign) {
  const auto bs = suite::make_bs();
  const CompactTrace trace = CompactTrace::from(
      ir::lower_and_execute(bs.program, bs.default_input).trace);
  const platform::Machine machine;
  const std::vector<double> sample =
      platform::run_campaign(machine, trace, 1'000'000, {});
  expect_matches_free_functions(sample, "bs campaign");
  // The footprint: a few dozen distinct cycle counts stand for the 1M
  // runs (the sorted buffer held all 1M).
  const PwcetCurve curve(sample);
  EXPECT_EQ(curve.sample_size(), sample.size());
  EXPECT_LE(curve.eccdf().distinct(), 48u);
}

}  // namespace
}  // namespace mbcr::mbpta
