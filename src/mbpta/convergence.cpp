#include "mbpta/convergence.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "mbpta/pwcet.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace mbcr::mbpta {

namespace {

struct ConvergenceMetrics {
  obs::Counter samples = obs::counter("convergence.samples");
  obs::Counter refits = obs::counter("convergence.refits");
};

const ConvergenceMetrics& convergence_metrics() {
  static const ConvergenceMetrics m;
  return m;
}

}  // namespace

ConvergenceResult converge_stream(const StreamSampler& sampler,
                                  const ConvergenceConfig& config) {
  ConvergenceResult result;
  auto grow_to = [&](std::size_t target) {
    while (result.sample.size() < target) {
      const std::size_t before = result.sample.size();
      sampler(result.sample, target - before);
      if (result.sample.size() == before) break;  // exhausted (tests only)
      if (obs::enabled()) {
        convergence_metrics().samples.add(result.sample.size() - before);
      }
    }
  };

  // Counted form of result.sample, kept up to date: each delta counts only
  // the new runs and merges their counts in, so a refit costs O(chunk + d)
  // on top of the tail fit, with no sort. The sample itself stays in run
  // order (the analyzer slices it by run index). Probes on the counts are
  // bit-identical to `pwcet_probe_sorted` on a freshly sorted copy.
  Eccdf counted;
  auto probe = [&]() {
    obs::Span span("refit");
    if (obs::enabled()) convergence_metrics().refits.add(1);
    counted.add(std::span<const double>(result.sample).subspan(counted.size()));
    return pwcet_probe(counted, config.probability, config.evt);
  };

  std::uint64_t refit_count = 0;
  grow_to(config.min_runs);
  while (result.sample.size() <= config.max_runs) {
    result.estimates.push_back(probe());
    ++refit_count;

    double window_dev = -1.0;  // worst |estimate - median| / median so far
    if (result.estimates.size() >= config.window) {
      const std::span<const double> window_span(
          result.estimates.data() + result.estimates.size() - config.window,
          config.window);
      const double med = quantile(window_span, 0.5);
      bool stable = med > 0.0;
      if (med > 0.0) {
        window_dev = 0.0;
        for (double e : window_span) {
          window_dev = std::max(window_dev, std::abs(e - med) / med);
        }
      }
      for (double e : window_span) {
        if (std::abs(e - med) > config.tolerance * med) {
          stable = false;
          break;
        }
      }
      if (stable) {
        obs::progress_done("converge", result.sample.size(), "samples");
        result.runs = result.sample.size();
        result.converged = true;
        return result;
      }
    }
    if (obs::progress_enabled()) {
      std::string extra = "refit " + std::to_string(refit_count);
      if (window_dev >= 0.0) {
        char buf[64];
        std::snprintf(buf, sizeof buf, ", window dev %.3f vs tol %.3f",
                      window_dev, config.tolerance);
        extra += buf;
      }
      obs::progress_tick("converge", result.sample.size(), config.max_runs,
                         "samples", extra);
    }
    // Geometric-ish growth: fixed deltas at small sizes (fine resolution
    // where convergence typically happens), proportional steps later so
    // the refit cost stays near-linear overall. At least one run, so a
    // zero delta on a sample under five runs still makes progress.
    const std::size_t step = std::max(
        {config.delta, result.sample.size() / 5, std::size_t{1}});
    if (result.sample.size() + step > config.max_runs) break;
    grow_to(result.sample.size() + step);
  }
  result.runs = result.sample.size();
  result.converged = false;
  return result;
}

}  // namespace mbcr::mbpta
