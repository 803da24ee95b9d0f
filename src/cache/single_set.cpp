#include "cache/single_set.hpp"

#include <algorithm>

namespace mbcr {

SingleSetCache::SingleSetCache(std::uint32_t ways,
                               std::uint64_t replacement_seed)
    : ways_(ways, kInvalid), rng_(replacement_seed) {}

bool SingleSetCache::access_line(Addr line) {
  for (Addr& tag : ways_) {
    if (tag == line) return true;
  }
  ++misses_;
  ways_[rng_.uniform(static_cast<std::uint32_t>(ways_.size()))] = line;
  return false;
}

void SingleSetCache::flush() {
  std::fill(ways_.begin(), ways_.end(), kInvalid);
  misses_ = 0;
}

double expected_misses_single_set(std::span<const Addr> projected,
                                  std::uint32_t ways, std::uint64_t seed,
                                  std::uint32_t trials) {
  if (projected.empty() || trials == 0) return 0.0;
  // SingleSetCache's replay, one tag buffer for every trial.
  constexpr Addr kInvalid = ~Addr{0};
  std::vector<Addr> tags(ways);
  double total = 0.0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    std::fill(tags.begin(), tags.end(), kInvalid);
    Xoshiro256 rng(mix64(t + 1, seed));
    std::uint64_t misses = 0;
    for (const Addr line : projected) {
      if (std::find(tags.begin(), tags.end(), line) != tags.end()) continue;
      ++misses;
      tags[rng.uniform(ways)] = line;
    }
    total += static_cast<double>(misses);
  }
  return total / static_cast<double>(trials);
}

}  // namespace mbcr
