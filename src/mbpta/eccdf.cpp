#include "mbpta/eccdf.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>

namespace mbcr::mbpta {

namespace {

using Step = Eccdf::Step;

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// -0.0 and +0.0 compare equal, so they are one value: +0.0.
double folded(double x) { return x == 0.0 ? 0.0 : x; }

/// An unsigned key ordered as the (folded) doubles are: a negative double
/// has all its bits flipped, a non-negative one its sign bit set.
std::uint64_t order_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

/// splitmix64's finalizer: every bit of the value reaches the top bits,
/// which pick the home slot (cycle counts differ only in their high
/// mantissa bits).
std::uint64_t slot_hash(double x) {
  auto key = std::bit_cast<std::uint64_t>(x);
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ULL;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebULL;
  return key ^ (key >> 31);
}

/// LSD radix digits of the order keys: 11 bits each, six of them.
constexpr int kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr int kDigits = (64 + kDigitBits - 1) / kDigitBits;

std::size_t digit(double x, int which) {
  return static_cast<std::size_t>(order_key(x) >> (which * kDigitBits)) &
         (kBuckets - 1);
}

/// The distinct values of `sample`, ascending, each with its count in
/// `at_or_below`. One pass counts them in an open-addressing table with
/// linear probing, which grows fourfold whenever it is half full (few
/// rehashes, short probes), so it stays O(d). An LSD radix sort of the d
/// values follows: its first pass scatters straight out of the table, and
/// a digit that every value shares costs no pass.
std::vector<Step> sorted_counts(std::span<const double> sample) {
  // Per digit, how many distinct values have each digit value.
  std::vector<std::size_t> offsets(kDigits * kBuckets, 0);
  int bits = 4;
  std::vector<Step> table(std::size_t{1} << bits);  // count 0: empty slot
  std::size_t used = 0;
  const auto home = [&bits](std::uint64_t hash) {
    return static_cast<std::size_t>(hash >> (64 - bits));
  };
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  // Hashes run kAhead values ahead of the inserts, and their home slots
  // are prefetched: once a mostly-distinct sample's table outgrows the
  // cache, each insert would otherwise wait on memory.
  constexpr std::size_t kAhead = 8;
  std::array<std::uint64_t, kAhead> ahead{};
  for (std::size_t i = 0; i < std::min(kAhead, sample.size()); ++i) {
    ahead[i] = slot_hash(folded(sample[i]));
  }
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const double x = folded(sample[i]);
    std::uint64_t& hash = ahead[i % kAhead];
    std::size_t slot = home(hash);
    if (i + kAhead < sample.size()) {
      hash = slot_hash(folded(sample[i + kAhead]));
      __builtin_prefetch(&table[home(hash)]);
    }
    const std::size_t mask = table.size() - 1;
    while (table[slot].at_or_below != 0 && !same(table[slot].value, x)) {
      slot = (slot + 1) & mask;
    }
    Step& entry = table[slot];
    if (entry.at_or_below++ != 0) continue;
    entry.value = x;
    for (int which = 0; which < kDigits; ++which) {
      ++offsets[which * kBuckets + digit(x, which)];
    }
    if (2 * ++used <= table.size()) continue;
    std::vector<Step> old =
        std::exchange(table, std::vector<Step>(table.size() * 4));
    bits += 2;
    for (const Step& moved : old) {
      if (moved.at_or_below == 0) continue;
      std::size_t to = home(slot_hash(moved.value));
      while (table[to].at_or_below != 0) to = (to + 1) & (table.size() - 1);
      table[to] = moved;
    }
  }

  // Each pass scatters by one digit: out of the table (skipping its empty
  // slots) first, then back and forth between `sorted` and the table's
  // storage. A digit whose bucket holds every value is shared by all.
  const auto occupied = [](const Step& step) { return step.at_or_below != 0; };
  const auto some = std::find_if(table.begin(), table.end(), occupied);
  const double some_value = some == table.end() ? 0.0 : some->value;
  std::vector<Step> sorted(used);
  bool scattered = false;
  for (int which = 0; which < kDigits; ++which) {
    std::size_t* const offset = offsets.data() + which * kBuckets;
    if (offset[digit(some_value, which)] == used) continue;  // shared digit
    std::size_t start = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      start += std::exchange(offset[b], start);
    }
    if (!scattered) {
      for (const Step& step : table) {
        if (occupied(step)) sorted[offset[digit(step.value, which)]++] = step;
      }
      table.resize(used);
      scattered = true;
    } else {
      for (const Step& step : sorted) {
        table[offset[digit(step.value, which)]++] = step;
      }
      sorted.swap(table);
    }
  }
  if (!scattered) {
    std::copy_if(table.begin(), table.end(), sorted.begin(), occupied);
  }
  return sorted;
}

/// Rank r such that (n - r)/n <= p, i.e. r >= n(1-p), capped at the top.
std::size_t exceedance_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, static_cast<double>(n) * (1.0 - p)));
  return std::min(rank, n - 1);
}

}  // namespace

Eccdf::Eccdf(std::span<const double> sample) : steps_(sorted_counts(sample)) {
  std::size_t total = 0;
  for (Step& step : steps_) step.at_or_below = total += step.at_or_below;
}

Eccdf Eccdf::merge(const Eccdf& a, const Eccdf& b, double* ks_statistic) {
  const std::span<const Step> sa = a.steps_;
  const std::span<const Step> sb = b.steps_;
  Eccdf out;
  std::vector<Step>& steps = out.steps_;
  steps.resize(sa.size() + sb.size());
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  std::size_t at_or_below_a = 0;
  std::size_t at_or_below_b = 0;
  double d = 0.0;
  // Both sides left: step over the smaller value on each side holding it.
  // These are exactly the steps of `ks_statistic_sorted`.
  for (; i < sa.size() && j < sb.size(); ++k) {
    const bool from_a = sa[i].value <= sb[j].value;
    const bool from_b = sb[j].value <= sa[i].value;
    at_or_below_a = from_a ? sa[i].at_or_below : at_or_below_a;
    at_or_below_b = from_b ? sb[j].at_or_below : at_or_below_b;
    steps[k] = {from_a ? sa[i].value : sb[j].value,
                at_or_below_a + at_or_below_b};
    i += from_a ? 1 : 0;
    j += from_b ? 1 : 0;
    if (ks_statistic != nullptr) {
      const double fa = static_cast<double>(at_or_below_a) /
                        static_cast<double>(a.size());
      const double fb = static_cast<double>(at_or_below_b) /
                        static_cast<double>(b.size());
      d = std::max(d, std::abs(fa - fb));
    }
  }
  for (; i < sa.size(); ++i, ++k) {
    steps[k] = {sa[i].value, sa[i].at_or_below + at_or_below_b};
  }
  for (; j < sb.size(); ++j, ++k) {
    steps[k] = {sb[j].value, at_or_below_a + sb[j].at_or_below};
  }
  steps.resize(k);
  if (ks_statistic != nullptr) *ks_statistic = d;
  return out;
}

void Eccdf::add(std::span<const double> more) {
  *this = merge(*this, Eccdf(more));
}

double Eccdf::exceedance_prob(double t) const {
  if (steps_.empty()) return 0.0;
  const auto above = std::ranges::upper_bound(steps_, t, {}, &Step::value);
  const std::size_t at_or_below =
      above == steps_.begin() ? 0 : std::prev(above)->at_or_below;
  return static_cast<double>(size() - at_or_below) /
         static_cast<double>(size());
}

double value_at_exceedance_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[exceedance_rank(sorted.size(), p)];
}

double Eccdf::value_at_exceedance(double p) const {
  if (steps_.empty()) return 0.0;
  return value_at_rank(exceedance_rank(size(), p));
}

double Eccdf::value_at_rank(std::size_t rank) const {
  return std::ranges::upper_bound(steps_, rank, {}, &Step::at_or_below)
      ->value;
}

double Eccdf::quantile(double q) const {
  if (steps_.empty()) return 0.0;
  const std::size_t n = size();
  if (n == 1) return steps_.front().value;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  const double low = value_at_rank(lo);
  return low + frac * (value_at_rank(hi) - low);
}

double Eccdf::min() const {
  return steps_.empty() ? 0.0 : steps_.front().value;
}
double Eccdf::max() const {
  return steps_.empty() ? 0.0 : steps_.back().value;
}

std::vector<std::pair<double, double>> Eccdf::curve(
    std::size_t max_points) const {
  std::vector<std::pair<double, double>> out;
  if (steps_.empty() || max_points == 0) return out;
  const std::size_t total = size();
  const std::size_t stride = std::max<std::size_t>(1, total / max_points);
  const auto n = static_cast<double>(total);
  std::size_t holder = 0;  // the step holding rank i
  for (std::size_t i = 0; i < total; i += stride) {
    while (steps_[holder].at_or_below <= i) ++holder;
    out.emplace_back(steps_[holder].value,
                     (n - static_cast<double>(i) - 1.0) / n);
  }
  if (out.back().first != steps_.back().value) {
    out.emplace_back(steps_.back().value, 0.0);
  }
  return out;
}

}  // namespace mbcr::mbpta
