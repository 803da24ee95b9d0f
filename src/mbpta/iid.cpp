#include "mbpta/iid.hpp"

#include <algorithm>
#include <sstream>

#include "util/stats.hpp"

namespace mbcr::mbpta {

std::string IidReport::summary() const {
  std::ostringstream ss;
  ss << "runs-test p=" << runs_test_p << ", ljung-box p=" << ljung_box_p
     << ", split-KS p=" << ks_split_p << " => "
     << (passed() ? "i.i.d. plausible" : "i.i.d. REJECTED");
  return ss.str();
}

IidReport check_iid(std::span<const double> sample, double alpha) {
  return check_iid_and_sort(sample, alpha).report;
}

SortedIidCheck check_iid_and_sort(std::span<const double> sample,
                                  double alpha) {
  SortedIidCheck out{{}, std::vector<double>(sample.begin(), sample.end())};
  std::vector<double>& sorted = out.sorted;
  IidReport& report = out.report;
  const std::size_t half = sample.size() / 2;
  const auto mid = sorted.begin() + static_cast<std::ptrdiff_t>(half);
  std::sort(sorted.begin(), mid);
  std::sort(mid, sorted.end());
  // Too small to reject anything; treat as passing (MBPTA requires far
  // larger samples anyway).
  const bool testable = sample.size() >= 40;
  if (testable) {
    const std::span<const double> all(sorted);
    report.ks_split_p = ks_pvalue_sorted(all.first(half), all.subspan(half));
  }
  std::inplace_merge(sorted.begin(), mid, sorted.end());
  if (!testable) {
    report.independent = true;
    report.identically_distributed = true;
    return out;
  }
  report.runs_test_p =
      runs_test_pvalue_at(sample, quantile_sorted(sorted, 0.5));
  report.ljung_box_p = ljung_box_pvalue(sample, 10);
  report.independent =
      report.runs_test_p > alpha && report.ljung_box_p > alpha;
  report.identically_distributed = report.ks_split_p > alpha;
  return out;
}

}  // namespace mbcr::mbpta
