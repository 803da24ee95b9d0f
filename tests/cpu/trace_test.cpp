#include "cpu/trace.hpp"

#include <gtest/gtest.h>

#include <utility>

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
  EXPECT_EQ(c.entries[0].is_instr, 1);
  EXPECT_EQ(c.entries[1].is_instr, 0);
  // Dense ids point back at the right line numbers.
  EXPECT_EQ(c.ilines[c.entries[0].line_id], Addr{0x1000 / 32});
  EXPECT_EQ(c.ilines[c.entries[2].line_id], Addr{0x1020 / 32});
  EXPECT_EQ(c.dlines[c.entries[3].line_id], Addr{0x8040 / 32});
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

  const std::vector<std::pair<int, Addr>> want = {
      {1, kA / 32}, {0, kX / 32}, {1, kB / 32}, {1, kA / 32},
      {0, kY / 32}, {0, kX / 32}, {0, kY / 32}};
  ASSERT_EQ(c.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const CompactTrace::Entry& e = c.entries[i];
    EXPECT_EQ(e.is_instr, want[i].first) << "entry " << i;
    EXPECT_EQ(e.is_instr ? c.ilines[e.line_id] : c.dlines[e.line_id],
              want[i].second)
        << "entry " << i;
  }
  EXPECT_EQ(c.folded_ifetches, 2u);
  EXPECT_EQ(c.folded_loads, 2u);
  EXPECT_EQ(c.accesses, t.size());

  // Per side, replayed entries plus folded hits are every access.
  std::size_t ientries = 0;
  for (const CompactTrace::Entry& e : c.entries) ientries += e.is_instr;
  EXPECT_EQ(ientries + c.folded_ifetches, t.line_sequence(true).size());
  EXPECT_EQ(c.size() - ientries + c.folded_loads,
            t.line_sequence(false).size());
}

TEST(CompactTrace, PerSideSequencesMarkFirstUses) {
  // iseq/dseq are `entries` split by side, in trace order, with kFirstUse
  // on each line's first replayed access (never folded: nothing precedes
  // it on that line).
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
  constexpr std::uint32_t kFirst = CompactTrace::kFirstUse;
  EXPECT_EQ(c.iseq, (std::vector<std::uint32_t>{0 | kFirst, 1 | kFirst, 0}));
  EXPECT_EQ(c.dseq, (std::vector<std::uint32_t>{0 | kFirst, 1 | kFirst, 0}));
  EXPECT_EQ(c.iseq.size() + c.dseq.size(), c.size());
  EXPECT_EQ(c.ilines[1], kB / 32);
  EXPECT_EQ(c.dlines[1], kY / 32);
}

TEST(CompactTrace, LineIndexListsEachLinesEntries) {
  // line_entries groups the positions in `entries` by line: IL1 ids
  // first, then DL1 ids after ilines.size(), each line's ascending, so its
  // first position is the line's first use.
  constexpr Addr kA = 0x1000, kB = 0x1040, kX = 0x8000, kY = 0x8080;
  MemTrace t;
  t.emit(kA, AccessKind::kIFetch);      // entry 0
  t.emit(kX, AccessKind::kLoad);        // entry 1
  t.emit(kA + 4, AccessKind::kIFetch);  // folded
  t.emit(kB, AccessKind::kIFetch);      // entry 2
  t.emit(kA, AccessKind::kIFetch);      // entry 3
  t.emit(kY, AccessKind::kStore);       // entry 4
  t.emit(kX, AccessKind::kLoad);        // entry 5
  const CompactTrace c = CompactTrace::from(t);
  EXPECT_EQ(c.line_begin, (std::vector<std::uint32_t>{0, 2, 3, 5, 6}));
  EXPECT_EQ(c.line_entries,
            (std::vector<std::uint32_t>{0, 3, 2, 1, 5, 4}));
  EXPECT_TRUE(CompactTrace::from(MemTrace{}).line_entries.empty());
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
