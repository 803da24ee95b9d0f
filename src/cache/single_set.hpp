// Single-set random-replacement cache: the reference for TAC's impact
// estimator.
//
// TAC asks: if this particular group of k lines were randomly placed into
// the *same* set, how many extra misses would the program suffer? The
// answer only depends on the projected access subsequence (accesses to
// lines in the group) competing for W ways, which this class simulates.
// `tac::group_extra_misses` computes the same answer without building the
// projection, and is tested against `expected_misses_single_set`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mem/address.hpp"
#include "util/rng.hpp"

namespace mbcr {

class SingleSetCache {
public:
  SingleSetCache(std::uint32_t ways, std::uint64_t replacement_seed);

  bool access_line(Addr line);
  void flush();

  std::uint32_t ways() const { return static_cast<std::uint32_t>(ways_.size()); }
  std::uint64_t misses() const { return misses_; }

private:
  std::vector<Addr> ways_;
  Xoshiro256 rng_;
  std::uint64_t misses_ = 0;

  static constexpr Addr kInvalid = ~Addr{0};
};

/// Expected miss count when replaying `projected` (a sequence of line ids,
/// all competing for one set) through a W-way random-replacement set,
/// averaged over `trials` independent replacement streams.
double expected_misses_single_set(std::span<const Addr> projected,
                                  std::uint32_t ways, std::uint64_t seed,
                                  std::uint32_t trials = 8);

}  // namespace mbcr
