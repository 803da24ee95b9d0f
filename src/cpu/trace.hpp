// Memory-access traces and their compact replay form.
//
// The interpreter produces a `MemTrace` (full byte addresses) once per
// (program, input). Measurement campaigns then replay the trace hundreds of
// thousands of times under fresh random placements; `CompactTrace`
// pre-resolves every access to a dense per-cache line id so replay is a
// table lookup instead of a hash per access, and folds out the accesses
// that hit under every placement (see `CompactTrace::from`). It keeps the
// replayed accesses twice: interleaved in trace order (`entries`, for the
// two-level replay, whose L2 sees both sides' misses in that order) and
// split per side (`iseq`/`dseq`, for the single-level replay, which
// simulates each L1 on its own). Both replays skip every access but the
// first of a line that is alone in its L1 set, so both forms can find a
// line's first use: `iseq`/`dseq` mark it, and `line_entries` lists each
// line's positions in `entries`, first use first.
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
  struct Entry {
    std::uint32_t line_id;
    std::uint8_t is_instr;  // 1 = IL1, 0 = DL1
  };

  /// The accesses replay must simulate, in trace order.
  std::vector<Entry> entries;
  /// The same accesses split per side, in trace order: the dense line id
  /// of every IL1 (`iseq`) or DL1 (`dseq`) entry, with `kFirstUse` set on
  /// the entry that touches its line for the first time.
  static constexpr std::uint32_t kFirstUse = 0x80000000u;
  std::vector<std::uint32_t> iseq;
  std::vector<std::uint32_t> dseq;
  /// Guaranteed hits folded out of `entries`, per side (instruction
  /// fetches; data loads and stores): each costs its base cycles only.
  std::uint64_t folded_ifetches = 0;
  std::uint64_t folded_loads = 0;
  /// Every access of the source trace: entries plus folded hits.
  std::uint64_t accesses = 0;
  /// Each L1 line's accesses as positions in `entries`, ascending: line
  /// c's are `line_entries[line_begin[c]]` up to `line_begin[c + 1]`, where
  /// c is its IL1 dense id, or `ilines.size()` plus its DL1 dense id. The
  /// first is the line's first use on its side.
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

  /// Replayed entries (not the source trace's access count: `accesses`).
  std::size_t size() const { return entries.size(); }
};

/// True iff `needle` is a subsequence of `haystack` (order-preserving,
/// not necessarily contiguous). Used to verify the PUB invariant.
bool is_subsequence(std::span<const Addr> needle,
                    std::span<const Addr> haystack);

}  // namespace mbcr
