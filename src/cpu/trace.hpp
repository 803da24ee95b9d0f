// Memory-access traces and their compact replay form.
//
// The interpreter produces a `MemTrace` (full byte addresses) once per
// (program, input). Measurement campaigns then replay the trace hundreds of
// thousands of times under fresh random placements; `CompactTrace`
// pre-resolves every access to a dense per-cache line id so replay is a
// table lookup instead of a hash per access, and folds out the accesses
// that hit under every placement (see `CompactTrace::from`). Its layout is
// per side, because each L1 is replayed on its own: `iseq`/`dseq` hold a
// side's line ids in trace order, and `line_begin`/`line_entries` list
// each line's positions in its side's sequence, first use first, so a
// replay can jump from one access of a line to its next. `ipos`/`dpos`
// give each side entry's position in trace order, for a shared L2, which
// sees both sides' misses in that order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mem/address.hpp"

namespace mbcr {

struct MemTrace {
  std::vector<Access> accesses;

  void emit(Addr addr, AccessKind kind) { accesses.push_back({addr, kind}); }
  std::size_t size() const { return accesses.size(); }

  /// Cache-line sequence for one side (instruction or data accesses).
  std::vector<Addr> line_sequence(bool instruction_side,
                                  Addr line_bytes = kDefaultLineBytes) const;

  /// Distinct cache lines touched on one side.
  std::size_t unique_lines(bool instruction_side,
                           Addr line_bytes = kDefaultLineBytes) const;
};

/// Replay-optimized trace: every access that can miss becomes (side, dense
/// line id); the guaranteed hits are only counted.
struct CompactTrace {
  /// The accesses replay must simulate, split per side, each in trace
  /// order: the dense line id of every IL1 (`iseq`) or DL1 (`dseq`) entry.
  std::vector<std::uint32_t> iseq;
  std::vector<std::uint32_t> dseq;
  /// Each side entry's position in trace order: `ipos[k]` is where
  /// `iseq[k]` falls among all `size()` entries of both sides, and
  /// `dpos[k]` where `dseq[k]` falls. Together they number 0 ... size() - 1
  /// once each.
  std::vector<std::uint32_t> ipos;
  std::vector<std::uint32_t> dpos;
  /// Guaranteed hits folded out of `iseq`/`dseq`, per side (instruction
  /// fetches; data loads and stores): each costs its base cycles only.
  std::uint64_t folded_ifetches = 0;
  std::uint64_t folded_loads = 0;
  /// Every access of the source trace: entries plus folded hits.
  std::uint64_t accesses = 0;
  /// Each L1 line's accesses as positions in its own side's sequence,
  /// ascending: line c's are `line_entries[line_begin[c]]` up to
  /// `line_begin[c + 1]`, where c is its IL1 dense id (positions in
  /// `iseq`), or `ilines.size()` plus its DL1 dense id (positions in
  /// `dseq`). The first is the line's first use. Dense ids are given in
  /// first-use order, so first uses ascend with the id.
  std::vector<std::uint32_t> line_begin;
  std::vector<std::uint32_t> line_entries;
  std::vector<Addr> ilines;  ///< line number per IL1 dense id
  std::vector<Addr> dlines;  ///< line number per DL1 dense id

  /// Unified id space for a shared L2: the union of ilines and dlines,
  /// deduplicated by line number (a line both fetched and loaded gets ONE
  /// unified id, exactly as a real unified cache would see it).
  std::vector<Addr> ulines;              ///< line number per unified id
  std::vector<std::uint32_t> iline_uid;  ///< unified id per IL1 dense id
  std::vector<std::uint32_t> dline_uid;  ///< unified id per DL1 dense id

  /// Resolves `trace` at `line_bytes`, which must be the line size of the
  /// caches it replays on. An access to the same line as the previous
  /// access on the same side is folded. That previous access left the line
  /// in its L1, and nothing in between can evict it: every access in
  /// between went to the other L1, a separate cache, and the L2 never
  /// reaches back into an L1. So the folded access hits under every
  /// placement, replacement policy and hierarchy level; as a hit it draws
  /// no replacement randomness (misses are the only RNG consumers) and
  /// never probes the L2, so dropping it leaves every other access's
  /// outcome unchanged.
  static CompactTrace from(const MemTrace& trace,
                           Addr line_bytes = kDefaultLineBytes);

  /// Replayed entries, both sides (not the source trace's access count:
  /// `accesses`).
  std::size_t size() const { return iseq.size() + dseq.size(); }
};

/// True iff `needle` is a subsequence of `haystack` (order-preserving,
/// not necessarily contiguous). Used to verify the PUB invariant.
bool is_subsequence(std::span<const Addr> needle,
                    std::span<const Addr> haystack);

}  // namespace mbcr
