// Impact estimation: how many extra misses does a line group cause if
// random placement maps all of its lines into one set?
//
// The estimate walks the group's accesses through one W-way
// random-replacement set from miss to miss (`walk_misses`,
// cache/miss_walk.hpp), never visiting a hit: the group's lines, sorted by
// first use, all share slot 0. When the lines' [first, last] position
// intervals are pairwise disjoint (the projection is one run per line),
// each line misses exactly once per trial and the impact is 0 without a
// trial. The reference is a one-set `RandomCache` replaying the group's
// projection (`expected_misses_single_set` over `project_group`): the
// same cache model that checks the L1 replay.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mem/address.hpp"
#include "tac/reuse.hpp"

namespace mbcr::tac {

/// Projects the sequence onto the chosen lines (by index into
/// `profile.lines`) using their pre-recorded positions: the access
/// stream that `group_extra_misses` estimates, and with
/// `expected_misses_single_set` the reference its kernel is tested
/// against.
std::vector<Addr> project_group(const ReuseProfile& profile,
                                std::span<const std::size_t> line_indices);

/// Expected miss count when replaying `projected` (a sequence of line ids,
/// all competing for one set) through a one-set W-way `RandomCache`,
/// averaged over `trials` replacement streams (trial t seeds
/// `mix64(t + 1, seed)`).
double expected_misses_single_set(std::span<const Addr> projected,
                                  std::uint32_t ways, std::uint64_t seed,
                                  std::uint32_t trials = 8);

/// Expected *extra* misses when the group shares one W-way
/// random-replacement set, relative to the conflict-free baseline (one
/// cold miss per line). Averaged over `trials` replacement streams.
/// Bit-equal to `max(0, expected_misses_single_set(project_group(..)) -
/// k)` for distinct line indices in any order (same draws, same miss
/// counts, same mean), without building the projection. Thread-safe.
double group_extra_misses(const ReuseProfile& profile,
                          std::span<const std::size_t> line_indices,
                          std::uint32_t ways, std::uint64_t seed,
                          std::uint32_t trials = 8);

}  // namespace mbcr::tac
