#include "mbpta/iid.hpp"

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

namespace {

// Too small to reject anything: treated as passing (MBPTA requires far
// larger samples anyway).
constexpr std::size_t kTestableSize = 40;

void set_verdicts(IidReport& report, double alpha) {
  report.independent =
      report.runs_test_p > alpha && report.ljung_box_p > alpha;
  report.identically_distributed = report.ks_split_p > alpha;
}

}  // namespace

IidReport check_iid(std::span<const double> sample, double alpha) {
  IidReport report;
  if (sample.size() < kTestableSize) {
    report.independent = true;
    report.identically_distributed = true;
    return report;
  }
  const std::size_t half = sample.size() / 2;
  report.runs_test_p = runs_test_pvalue(sample);
  report.ljung_box_p = ljung_box_pvalue(sample, 10);
  report.ks_split_p = ks_pvalue(sample.first(half), sample.subspan(half));
  set_verdicts(report, alpha);
  return report;
}

CountedIidCheck check_iid_counted(std::span<const double> sample,
                                  double alpha) {
  const std::size_t half = sample.size() / 2;
  const Eccdf first(sample.first(half));
  const Eccdf second(sample.subspan(half));
  double ks_statistic = 0.0;
  CountedIidCheck out{{}, Eccdf::merge(first, second, &ks_statistic)};
  IidReport& report = out.report;
  if (sample.size() < kTestableSize) {
    report.independent = true;
    report.identically_distributed = true;
    return out;
  }
  report.ks_split_p =
      ks_pvalue_from_statistic(ks_statistic, first.size(), second.size());
  report.runs_test_p = runs_test_pvalue_at(sample, out.eccdf.quantile(0.5));
  report.ljung_box_p = ljung_box_pvalue(sample, 10);
  set_verdicts(report, alpha);
  return out;
}

}  // namespace mbcr::mbpta
