// Impact estimation: how many extra misses does a line group cause if
// random placement maps all of its lines into one set?
//
// The estimate replays the group's accesses through one W-way
// random-replacement set, but never visits a hit. Random replacement
// keeps no recency state, so a hit changes nothing and draws nothing;
// between two misses every access is to a line already in the set. The
// next miss is therefore the earliest next access of any line *absent*
// from the set, and each trial jumps from miss to miss: take that
// minimum, draw the victim way, and move the victim's cursor past the
// current position in its own `LineStats::positions`. A draw may land on
// a still-empty way, so more than k - W lines can be absent. When the
// lines' [first, last] position intervals are pairwise disjoint (the
// projection is one run per line), each line misses exactly once per
// trial and the impact is 0 without a trial.
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
