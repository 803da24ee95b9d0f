// Independence and identical-distribution checks that MBPTA requires of
// its input measurements (paper Sec. 2: EVT "must meet certain statistical
// properties (e.g. independence and identical distribution)").
#pragma once

#include <span>
#include <string>

#include "mbpta/eccdf.hpp"

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

/// Runs all tests at significance `alpha` (tests must NOT reject). Built
/// from the free functions that sort their own copies (`runs_test_pvalue`,
/// `ljung_box_pvalue`, `ks_pvalue` on the run-order halves): the
/// reference that `check_iid_counted` is held bit-equal to.
IidReport check_iid(std::span<const double> sample, double alpha = 0.01);

/// `check_iid(sample, alpha)` together with the sample's counted form,
/// with no sort of the sample: the two run-order halves (the split-KS
/// halves) are counted apart and merged into the full distribution; the
/// merge's walk yields the KS statistic, and the merged median
/// dichotomizes the runs test. Ljung-Box and the runs test read the
/// sample in run order. `PwcetCurve` fits its tail on `eccdf` and keeps
/// it.
struct CountedIidCheck {
  IidReport report;
  Eccdf eccdf;
};
CountedIidCheck check_iid_counted(std::span<const double> sample,
                                  double alpha = 0.01);

}  // namespace mbcr::mbpta
