#include "cpu/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>

#include "ir/interp.hpp"
#include "suite/malardalen.hpp"

namespace mbcr {
namespace {

MemTrace sample_trace() {
  MemTrace t;
  t.emit(0x1000, AccessKind::kIFetch);
  t.emit(0x1004, AccessKind::kIFetch);
  t.emit(0x8000, AccessKind::kLoad);
  t.emit(0x1020, AccessKind::kIFetch);
  t.emit(0x8004, AccessKind::kStore);
  t.emit(0x8040, AccessKind::kLoad);
  return t;
}

TEST(MemTrace, LineSequenceSplitsSides) {
  const MemTrace t = sample_trace();
  const auto ilines = t.line_sequence(true);
  const auto dlines = t.line_sequence(false);
  EXPECT_EQ(ilines, (std::vector<Addr>{0x1000 / 32, 0x1000 / 32, 0x1020 / 32}));
  EXPECT_EQ(dlines, (std::vector<Addr>{0x8000 / 32, 0x8000 / 32, 0x8040 / 32}));
}

TEST(MemTrace, UniqueLines) {
  const MemTrace t = sample_trace();
  EXPECT_EQ(t.unique_lines(true), 2u);
  EXPECT_EQ(t.unique_lines(false), 2u);
}

TEST(CompactTrace, DenseIdsRoundTrip) {
  const MemTrace t = sample_trace();
  const CompactTrace c = CompactTrace::from(t);
  // 0x1004 repeats the previous IL1 line and the 0x8004 store the previous
  // DL1 line: both fold, the other four accesses are replayed.
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c.accesses, t.size());
  EXPECT_EQ(c.ilines.size(), 2u);
  EXPECT_EQ(c.dlines.size(), 2u);
  // Entries 0 and 2 are IL1 fetches, 1 and 3 DL1 accesses.
  EXPECT_EQ(c.ipos, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(c.dpos, (std::vector<std::uint32_t>{1, 3}));
  // Dense ids point back at the right line numbers.
  EXPECT_EQ(c.ilines[c.iseq[0]], Addr{0x1000 / 32});
  EXPECT_EQ(c.ilines[c.iseq[1]], Addr{0x1020 / 32});
  EXPECT_EQ(c.dlines[c.dseq[0]], Addr{0x8000 / 32});
  EXPECT_EQ(c.dlines[c.dseq[1]], Addr{0x8040 / 32});
}

TEST(CompactTrace, FoldsOnlyConsecutiveSameSideRepeats) {
  constexpr Addr kA = 0x1000, kB = 0x1040, kX = 0x8000, kY = 0x8080;
  MemTrace t;
  t.emit(kA, AccessKind::kIFetch);      // replayed
  t.emit(kX, AccessKind::kLoad);        // replayed
  t.emit(kA + 4, AccessKind::kIFetch);  // folded: a D access in between
  t.emit(kX + 8, AccessKind::kLoad);    // folded: an I access in between
  t.emit(kB, AccessKind::kIFetch);      // replayed
  t.emit(kA, AccessKind::kIFetch);      // replayed: B came in between
  t.emit(kY, AccessKind::kLoad);        // replayed
  t.emit(kY + 4, AccessKind::kStore);   // folded: stores are DL1 accesses
  t.emit(kX, AccessKind::kLoad);        // replayed
  t.emit(kA + 8, AccessKind::kIFetch);  // folded
  t.emit(kY, AccessKind::kStore);       // replayed: X came in between
  const CompactTrace c = CompactTrace::from(t);

  // Each side in trace order, with every entry's trace position.
  const std::vector<std::pair<std::uint32_t, Addr>> want_i = {
      {0, kA / 32}, {2, kB / 32}, {3, kA / 32}};
  const std::vector<std::pair<std::uint32_t, Addr>> want_d = {
      {1, kX / 32}, {4, kY / 32}, {5, kX / 32}, {6, kY / 32}};
  ASSERT_EQ(c.iseq.size(), want_i.size());
  ASSERT_EQ(c.ipos.size(), want_i.size());
  for (std::size_t k = 0; k < want_i.size(); ++k) {
    EXPECT_EQ(c.ipos[k], want_i[k].first) << "IL1 entry " << k;
    EXPECT_EQ(c.ilines[c.iseq[k]], want_i[k].second) << "IL1 entry " << k;
  }
  ASSERT_EQ(c.dseq.size(), want_d.size());
  ASSERT_EQ(c.dpos.size(), want_d.size());
  for (std::size_t k = 0; k < want_d.size(); ++k) {
    EXPECT_EQ(c.dpos[k], want_d[k].first) << "DL1 entry " << k;
    EXPECT_EQ(c.dlines[c.dseq[k]], want_d[k].second) << "DL1 entry " << k;
  }
  EXPECT_EQ(c.size(), want_i.size() + want_d.size());
  EXPECT_EQ(c.folded_ifetches, 2u);
  EXPECT_EQ(c.folded_loads, 2u);
  EXPECT_EQ(c.accesses, t.size());

  // Per side, replayed entries plus folded hits are every access.
  EXPECT_EQ(c.iseq.size() + c.folded_ifetches, t.line_sequence(true).size());
  EXPECT_EQ(c.dseq.size() + c.folded_loads, t.line_sequence(false).size());
}

TEST(CompactTrace, PerSideSequencesHoldDenseIdsInFirstUseOrder) {
  // iseq/dseq split the replayed accesses by side, in trace order, as
  // plain dense ids, and the ids are given in first-use order (a line's
  // first replayed access is never folded: nothing precedes it on that
  // line).
  constexpr Addr kA = 0x1000, kB = 0x1040, kX = 0x8000, kY = 0x8080;
  MemTrace t;
  t.emit(kA, AccessKind::kIFetch);
  t.emit(kX, AccessKind::kLoad);
  t.emit(kA + 4, AccessKind::kIFetch);  // folded
  t.emit(kB, AccessKind::kIFetch);
  t.emit(kA, AccessKind::kIFetch);
  t.emit(kY, AccessKind::kStore);
  t.emit(kX, AccessKind::kLoad);
  const CompactTrace c = CompactTrace::from(t);
  EXPECT_EQ(c.iseq, (std::vector<std::uint32_t>{0, 1, 0}));
  EXPECT_EQ(c.dseq, (std::vector<std::uint32_t>{0, 1, 0}));
  EXPECT_EQ(c.iseq.size() + c.dseq.size(), c.size());
  EXPECT_EQ(c.ilines, (std::vector<Addr>{kA / 32, kB / 32}));
  EXPECT_EQ(c.dlines, (std::vector<Addr>{kX / 32, kY / 32}));
}

TEST(CompactTrace, LineIndexListsEachLinesPositionsInItsSide) {
  // line_entries groups each side's positions by line: IL1 ids first, as
  // positions in iseq, then DL1 ids after ilines.size(), as positions in
  // dseq, each line's ascending, so its first position is the line's
  // first use.
  constexpr Addr kA = 0x1000, kB = 0x1040, kX = 0x8000, kY = 0x8080;
  MemTrace t;
  t.emit(kA, AccessKind::kIFetch);      // iseq 0
  t.emit(kX, AccessKind::kLoad);        // dseq 0
  t.emit(kA + 4, AccessKind::kIFetch);  // folded
  t.emit(kB, AccessKind::kIFetch);      // iseq 1
  t.emit(kA, AccessKind::kIFetch);      // iseq 2
  t.emit(kY, AccessKind::kStore);       // dseq 1
  t.emit(kX, AccessKind::kLoad);        // dseq 2
  t.emit(kB, AccessKind::kIFetch);      // iseq 3
  const CompactTrace c = CompactTrace::from(t);
  // Lines A, B (IL1), then X, Y (DL1).
  EXPECT_EQ(c.line_begin, (std::vector<std::uint32_t>{0, 2, 4, 6, 7}));
  EXPECT_EQ(c.line_entries,
            (std::vector<std::uint32_t>{0, 2, 1, 3, 0, 2, 1}));
  for (std::size_t l = 0; l < c.ilines.size(); ++l) {
    for (std::uint32_t k = c.line_begin[l]; k < c.line_begin[l + 1]; ++k) {
      EXPECT_EQ(c.iseq[c.line_entries[k]], l);
    }
  }
  const std::size_t ni = c.ilines.size();
  for (std::size_t l = 0; l < c.dlines.size(); ++l) {
    for (std::uint32_t k = c.line_begin[ni + l]; k < c.line_begin[ni + l + 1];
         ++k) {
      EXPECT_EQ(c.dseq[c.line_entries[k]], l);
    }
  }
  EXPECT_TRUE(CompactTrace::from(MemTrace{}).line_entries.empty());
}

TEST(CompactTrace, SidePositionsCoverTheTraceOrderOnce) {
  // ipos and dpos together hold 0 ... size() - 1 exactly once, each side's
  // ascending, on a real kernel trace and on the empty one.
  const auto b = suite::make_crc();
  const CompactTrace c = CompactTrace::from(
      ir::lower_and_execute(b.program, b.default_input).trace);
  ASSERT_GT(c.iseq.size(), 0u);
  ASSERT_GT(c.dseq.size(), 0u);
  EXPECT_EQ(c.ipos.size(), c.iseq.size());
  EXPECT_EQ(c.dpos.size(), c.dseq.size());
  EXPECT_TRUE(std::is_sorted(c.ipos.begin(), c.ipos.end()));
  EXPECT_TRUE(std::is_sorted(c.dpos.begin(), c.dpos.end()));
  std::vector<int> seen(c.size(), 0);
  for (const std::uint32_t p : c.ipos) {
    ASSERT_LT(p, c.size());
    ++seen[p];
  }
  for (const std::uint32_t p : c.dpos) {
    ASSERT_LT(p, c.size());
    ++seen[p];
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(c.size()));
  const CompactTrace empty = CompactTrace::from(MemTrace{});
  EXPECT_TRUE(empty.ipos.empty());
  EXPECT_TRUE(empty.dpos.empty());
}

TEST(CompactTrace, FoldingFollowsTheLineSize) {
  MemTrace t;
  t.emit(0x1000, AccessKind::kIFetch);
  t.emit(0x1020, AccessKind::kIFetch);  // same 64B line, next 32B line
  EXPECT_EQ(CompactTrace::from(t, 32).size(), 2u);
  const CompactTrace wide = CompactTrace::from(t, 64);
  EXPECT_EQ(wide.size(), 1u);
  EXPECT_EQ(wide.folded_ifetches, 1u);
}

TEST(CompactTrace, EmptyTrace) {
  const CompactTrace c = CompactTrace::from(MemTrace{});
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.accesses, 0u);
  EXPECT_TRUE(c.ilines.empty());
  EXPECT_TRUE(c.dlines.empty());
}

TEST(IsSubsequence, Basics) {
  const std::vector<Addr> hay{1, 2, 3, 4, 5};
  EXPECT_TRUE(is_subsequence(std::vector<Addr>{}, hay));
  EXPECT_TRUE(is_subsequence(std::vector<Addr>{1, 3, 5}, hay));
  EXPECT_TRUE(is_subsequence(hay, hay));
  EXPECT_FALSE(is_subsequence(std::vector<Addr>{3, 1}, hay));
  EXPECT_FALSE(is_subsequence(std::vector<Addr>{1, 6}, hay));
  EXPECT_FALSE(is_subsequence(hay, std::vector<Addr>{1, 2, 3}));
}

TEST(IsSubsequence, RepeatedElements) {
  const std::vector<Addr> hay{1, 1, 2, 1};
  EXPECT_TRUE(is_subsequence(std::vector<Addr>{1, 1, 1}, hay));
  EXPECT_FALSE(is_subsequence(std::vector<Addr>{1, 1, 1, 1}, hay));
}

}  // namespace
}  // namespace mbcr
