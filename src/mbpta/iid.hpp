// Independence and identical-distribution checks that MBPTA requires of
// its input measurements (paper Sec. 2: EVT "must meet certain statistical
// properties (e.g. independence and identical distribution)").
#pragma once

#include <span>
#include <string>
#include <vector>

namespace mbcr::mbpta {

struct IidReport {
  double runs_test_p = 1.0;        ///< Wald-Wolfowitz (independence)
  double ljung_box_p = 1.0;        ///< autocorrelation portmanteau
  double ks_split_p = 1.0;         ///< first-half vs second-half KS (i.d.)
  bool independent = false;
  bool identically_distributed = false;

  bool passed() const { return independent && identically_distributed; }
  std::string summary() const;
};

/// Runs all tests at significance `alpha` (tests must NOT reject).
IidReport check_iid(std::span<const double> sample, double alpha = 0.01);

/// `check_iid(sample, alpha)` together with the sample sorted ascending,
/// from one copy and one sort: the two run-order halves (the split-KS
/// halves) are sorted apart, feed the KS test, and are merged in place
/// into the full ascending sample, whose median dichotomizes the runs
/// test. `PwcetCurve` fits its tail and ECCDF on `sorted`.
struct SortedIidCheck {
  IidReport report;
  std::vector<double> sorted;
};
SortedIidCheck check_iid_and_sort(std::span<const double> sample,
                                  double alpha = 0.01);

}  // namespace mbcr::mbpta
