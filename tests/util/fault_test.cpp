// util/fault: the MBCR_FAULT spec parser and shard targeting. Both are
// pure, so they are pinned in every build, not only the fault build.
#include "util/fault.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

namespace mbcr::fault {
namespace {

TEST(FaultSpec, ParsesEveryKindAndRejectsEverythingElse) {
  struct Good {
    const char* text;
    Kind kind;
    std::uint64_t shard;
    std::optional<std::uint64_t> attempt;
  };
  const Good good[] = {
      {"replay", Kind::kReplay, 0, std::nullopt},
      {"vm", Kind::kVm, 0, std::nullopt},
      {"crash@2", Kind::kCrash, 2, std::nullopt},
      {"hang@1#0", Kind::kHang, 1, 0},
      {"truncate@0#0", Kind::kTruncate, 0, 0},
      {"badsum@0#1", Kind::kBadsum, 0, 1},
  };
  for (const Good& g : good) {
    const Spec spec = parse(g.text);
    EXPECT_EQ(spec.kind, g.kind) << g.text;
    EXPECT_EQ(spec.shard, g.shard) << g.text;
    EXPECT_EQ(spec.attempt, g.attempt) << g.text;
  }
  // A mis-armed fault would let a recovery test pass vacuously, so every
  // one of these must be rejected, not rounded to something that parses.
  const char* const bad[] = {
      "",         "explode@0",  "Crash@1",    "crash",       "crash@",
      "crash@x",  "crash@1x",   "crash@-1",   "crash@+1",    "crash@ 1",
      "crash@1#", "crash@1#-1", "crash@1#0x", "crash@1#2#3", "replay@0",
      "vm@1#0",   "replay#0",
  };
  for (const char* text : bad) {
    EXPECT_THROW(parse(text), std::invalid_argument) << text;
  }
}

TEST(FaultSpec, TargetingMatchesShardAndOptionalAttempt) {
  Spec spec;
  spec.kind = Kind::kCrash;
  spec.shard = 2;
  EXPECT_TRUE(spec.targets(2, 0));
  EXPECT_TRUE(spec.targets(2, 5));
  EXPECT_FALSE(spec.targets(1, 0));
  spec.attempt = 1;
  EXPECT_FALSE(spec.targets(2, 0));
  EXPECT_TRUE(spec.targets(2, 1));
  // Only the sweep-worker kinds target shards.
  spec.kind = Kind::kReplay;
  EXPECT_FALSE(spec.targets(2, 1));
  spec.kind = Kind::kNone;
  EXPECT_FALSE(spec.targets(2, 1));
}

}  // namespace
}  // namespace mbcr::fault
