// Impact estimation: how many extra misses does a line group cause if
// random placement maps all of its lines into one set?
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mem/address.hpp"
#include "tac/reuse.hpp"

namespace mbcr::tac {

/// Projects the sequence onto the chosen lines (by index into
/// `profile.lines`) using their pre-recorded positions. The
/// straightforward form of what `group_extra_misses` replays: the
/// reference its folded kernel is tested against.
std::vector<Addr> project_group(const ReuseProfile& profile,
                                std::span<const std::size_t> line_indices);

/// Expected *extra* misses when the group shares one W-way
/// random-replacement set, relative to the conflict-free baseline (one
/// cold miss per line). Averaged over `trials` replacement streams.
/// Bit-equal to `max(0, expected_misses_single_set(project_group(..)) -
/// k)`, but replays the projection with every guaranteed hit folded out
/// and skips the replay when each line's accesses form a single run.
/// Thread-safe.
double group_extra_misses(const ReuseProfile& profile,
                          std::span<const std::size_t> line_indices,
                          std::uint32_t ways, std::uint64_t seed,
                          std::uint32_t trials = 8);

}  // namespace mbcr::tac
