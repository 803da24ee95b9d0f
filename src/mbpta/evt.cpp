#include "mbpta/evt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/stats.hpp"

namespace mbcr::mbpta {

double ExpTailFit::quantile(double p) const {
  if (p <= 0.0) return std::numeric_limits<double>::infinity();
  if (zeta <= 0.0) return threshold;
  if (p >= zeta) return threshold;  // inside the empirical body
  if (!std::isfinite(rate) || rate <= 0.0) return threshold;
  return threshold + std::log(zeta / p) / rate;
}

double ExpTailFit::exceedance_prob(double t) const {
  if (t <= threshold) return zeta;
  if (!std::isfinite(rate) || rate <= 0.0) return 0.0;
  return zeta * std::exp(-rate * (t - threshold));
}

namespace {

/// Mean and coefficient of variation of the excesses over a threshold.
struct ExcessMoments {
  double mean = 0.0;
  double cv = 0.0;  ///< 0 unless mean > 0
};

/// Order statistics of an ascending span: the reference. The excesses are
/// materialized and handed to `mean` and `coefficient_of_variation`.
class SortedRanks {
public:
  explicit SortedRanks(std::span<const double> sorted) : sorted_(sorted) {}
  std::size_t size() const { return sorted_.size(); }
  double at(std::size_t rank) const { return sorted_[rank]; }

  /// Moments of the excesses over `u` of the observations of rank
  /// >= `first`.
  ExcessMoments excess_moments(std::size_t first, double u) const {
    std::vector<double> excess;
    excess.reserve(size() - first);
    for (std::size_t i = first; i < size(); ++i) {
      excess.push_back(sorted_[i] - u);
    }
    const double m = mean(excess);
    return {m, m > 0.0 ? coefficient_of_variation(excess) : 0.0};
  }

private:
  std::span<const double> sorted_;
};

/// Order statistics of a counted sample. The excess sums add each excess
/// once per occurrence, in ascending order, with the arithmetic of `mean`,
/// `variance` and `coefficient_of_variation` on the expanded excesses
/// (never as count * excess), so both moments are bit-identical to
/// SortedRanks'.
class CountedRanks {
public:
  explicit CountedRanks(const Eccdf& eccdf) : eccdf_(eccdf) {}
  std::size_t size() const { return eccdf_.size(); }
  double at(std::size_t rank) const { return eccdf_.value_at_rank(rank); }

  ExcessMoments excess_moments(std::size_t first, double u) const {
    const std::size_t count = size() - first;
    if (count == 0) return {};
    double sum = 0.0;
    for_each_excess(first, u, [&sum](double e) { sum += e; });
    const double m = sum / static_cast<double>(count);
    if (!(m > 0.0) || count < 2) return {m, 0.0};
    double acc = 0.0;
    for_each_excess(first, u,
                    [&acc, m](double e) { acc += (e - m) * (e - m); });
    return {m, std::sqrt(acc / static_cast<double>(count - 1)) / m};
  }

private:
  /// Calls `add(v - u)` once for every observation v of rank >= `first`,
  /// ascending.
  template <class Add>
  void for_each_excess(std::size_t first, double u, Add add) const {
    const std::span<const Eccdf::Step> steps = eccdf_.steps();
    std::size_t rank = first;
    for (auto step = std::ranges::upper_bound(steps, first, {},
                                              &Eccdf::Step::at_or_below);
         step != steps.end(); ++step) {
      const double excess = step->value - u;
      for (; rank < step->at_or_below; ++rank) add(excess);
    }
  }

  const Eccdf& eccdf_;
};

/// The tail model over the top `n_exc` observations, and its mean excess.
struct Candidate {
  ExpTailFit fit;
  double mean_excess = 0.0;
};

template <class Ranks>
Candidate tail_candidate(const Ranks& ranks, std::size_t n_exc) {
  const std::size_t n = ranks.size();
  Candidate out;
  ExpTailFit& fit = out.fit;
  fit.threshold = ranks.at(n - n_exc - 1);
  fit.n_exceedances = n_exc;
  fit.n_total = n;
  fit.zeta = static_cast<double>(n_exc) / static_cast<double>(n);
  const ExcessMoments moments = ranks.excess_moments(n - n_exc, fit.threshold);
  out.mean_excess = moments.mean;
  fit.rate = moments.mean > 0.0 ? 1.0 / moments.mean
                                : std::numeric_limits<double>::infinity();
  fit.cv = moments.cv;
  return out;
}

template <class Ranks>
ExpTailFit fit_tail(const Ranks& ranks, const EvtConfig& config) {
  ExpTailFit fit;
  fit.n_total = ranks.size();
  if (ranks.size() == 0) return fit;

  const std::size_t n = ranks.size();

  // Candidate thresholds: progressively higher quantiles. Accept the first
  // that (a) has excess CV within the confidence band and (b) is
  // self-consistent: its extrapolation one decade past the sample
  // resolution must dominate the sample maximum — a fit whose own
  // observations already exceed it has its threshold below a tail knee
  // (staircase mixtures from rare cache layouts) and must move up.
  // Remember the best (closest to CV 1) consistent candidate as fallback.
  const double sample_max = ranks.at(n - 1);
  const double probe_p = 0.1 / static_cast<double>(n);
  double tail_fraction = config.initial_tail_fraction;
  ExpTailFit best;
  double best_cv_dist = std::numeric_limits<double>::infinity();
  while (true) {
    const auto n_exc = std::max<std::size_t>(
        config.min_exceedances,
        static_cast<std::size_t>(static_cast<double>(n) * tail_fraction));
    if (n_exc >= n || n_exc < config.min_exceedances) break;
    const Candidate candidate = tail_candidate(ranks, n_exc);
    ExpTailFit cand = candidate.fit;
    const double band =
        config.cv_band_sigmas / std::sqrt(static_cast<double>(n_exc));
    cand.cv_accepted = std::abs(cand.cv - 1.0) <= band;
    const bool consistent = candidate.mean_excess == 0.0 ||
                            cand.quantile(probe_p) >= sample_max;
    const double dist = std::abs(cand.cv - 1.0);
    if (consistent && dist < best_cv_dist) {
      best_cv_dist = dist;
      best = cand;
    }
    if (cand.cv_accepted && consistent) return cand;
    // Raise the threshold: halve the tail fraction.
    const double next = tail_fraction / 2.0;
    if (next < config.min_tail_fraction) break;
    tail_fraction = next;
  }
  // No consistent threshold on the fraction grid: fit the extreme tail
  // (top min_exceedances observations) — conservative by construction on
  // staircase mixtures.
  if (best.n_exceedances == 0 && n > 2 * config.min_exceedances) {
    best = tail_candidate(ranks, config.min_exceedances).fit;
  }
  // No threshold passed the CV band (heavily discrete or short tails):
  // use the closest candidate — still an exponential upper-tail model,
  // flagged as not CV-accepted.
  if (best.n_exceedances == 0 && n >= 2) {
    // Sample too small for the loop: fit on the top half.
    best = tail_candidate(ranks, n / 2).fit;
  }
  return best;
}

}  // namespace

ExpTailFit fit_exponential_tail(std::span<const double> sample,
                                const EvtConfig& config) {
  if (sample.empty()) return {};
  const std::vector<double> sorted = sorted_copy(sample);
  return fit_exponential_tail_sorted(sorted, config);
}

ExpTailFit fit_exponential_tail_sorted(std::span<const double> sorted,
                                       const EvtConfig& config) {
  return fit_tail(SortedRanks(sorted), config);
}

ExpTailFit fit_exponential_tail(const Eccdf& eccdf, const EvtConfig& config) {
  return fit_tail(CountedRanks(eccdf), config);
}

double GumbelFit::quantile(double p) const {
  p = std::clamp(p, 1e-300, 1.0 - 1e-12);
  return mu - beta * std::log(-std::log(1.0 - p));
}

GumbelFit fit_gumbel_block_maxima(std::span<const double> sample,
                                  std::size_t block_size) {
  GumbelFit fit;
  if (sample.empty() || block_size == 0) return fit;
  std::vector<double> maxima;
  for (std::size_t start = 0; start + block_size <= sample.size();
       start += block_size) {
    double m = sample[start];
    for (std::size_t i = start + 1; i < start + block_size; ++i) {
      m = std::max(m, sample[i]);
    }
    maxima.push_back(m);
  }
  if (maxima.size() < 2) return fit;
  fit.blocks = maxima.size();
  // Probability-weighted moments: b0 = mean, b1 = sum((i)/(n-1) x_(i))/n.
  std::sort(maxima.begin(), maxima.end());
  const auto n = static_cast<double>(maxima.size());
  double b0 = 0.0;
  double b1 = 0.0;
  for (std::size_t i = 0; i < maxima.size(); ++i) {
    b0 += maxima[i];
    b1 += maxima[i] * static_cast<double>(i) / (n - 1.0);
  }
  b0 /= n;
  b1 /= n;
  constexpr double kEulerGamma = 0.57721566490153286;
  fit.beta = (2.0 * b1 - b0) / std::log(2.0);
  fit.mu = b0 - kEulerGamma * fit.beta;
  return fit;
}

}  // namespace mbcr::mbpta
