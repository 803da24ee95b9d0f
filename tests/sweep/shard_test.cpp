// The deterministic decomposition under the sweep: spec -> points ->
// units -> shard ranges. Everything here must be a pure function of the
// spec — workers and the merge layer re-derive the identical tables.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sweep/shard.hpp"

namespace mbcr::sweep {
namespace {

SweepSpec measure_spec(std::size_t runs) {
  SweepSpec spec;
  spec.base.suite = "bs";
  spec.base.mode = core::StudyMode::kMeasure;
  spec.base.measure_runs = runs;
  return spec;
}

TEST(SweepSpec, AxisFreeSweepIsOnePointEqualToBase) {
  SweepSpec spec;
  spec.base.suite = "bs";
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].suite, "bs");
  EXPECT_EQ(points[0].config.campaign.master_seed,
            spec.base.config.campaign.master_seed);
}

TEST(SweepSpec, ExpansionOrderIsSuiteOuterSeedInner) {
  SweepSpec spec;
  spec.base.suite = "bs";
  spec.suites = {"bs", "crc"};
  spec.seeds = {1, 2};
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].suite, "bs");
  EXPECT_EQ(points[0].config.campaign.master_seed, 1u);
  EXPECT_EQ(points[1].suite, "bs");
  EXPECT_EQ(points[1].config.campaign.master_seed, 2u);
  EXPECT_EQ(points[2].suite, "crc");
  EXPECT_EQ(points[2].config.campaign.master_seed, 1u);
  EXPECT_EQ(points[3].suite, "crc");
  EXPECT_EQ(points[3].config.campaign.master_seed, 2u);
}

TEST(SweepSpec, GeometryAndPlacementAxesOverrideBothL1Caches) {
  SweepSpec spec;
  spec.base.suite = "bs";
  spec.geometries = {"128x4"};
  spec.placements = {"modulo"};
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].config.machine.il1.sets, 128u);
  EXPECT_EQ(points[0].config.machine.il1.ways, 4u);
  EXPECT_EQ(points[0].config.machine.dl1.sets, 128u);
  EXPECT_EQ(points[0].config.machine.dl1.ways, 4u);
  EXPECT_EQ(points[0].config.machine.il1.placement,
            points[0].config.machine.dl1.placement);
}

TEST(SweepSpec, ValidateRejectsBadAxes) {
  for (const char* bad : {"64", "0x2", "64x0", "4294967296x2", "-1x2",
                          "64x2.5"}) {
    SweepSpec spec;
    spec.base.suite = "bs";
    spec.geometries = {bad};
    try {
      spec.validate();
      ADD_FAILURE() << bad << " validated";
    } catch (const std::invalid_argument& e) {
      // A geometry may come from a spec document: the error names the
      // geometry, never a flag.
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("sweep geometry '") + bad + "'"),
                std::string::npos)
          << what;
      EXPECT_EQ(what.find("flag"), std::string::npos) << what;
    }
  }

  SweepSpec l2 = measure_spec(100);
  l2.l2_policies = {"lru"};  // base has no L2 enabled
  EXPECT_THROW(l2.validate(), std::invalid_argument);

  SweepSpec slice;
  slice.base.suite = "bs";  // default mode is pub_tac, not measure
  slice.slice_runs = 10;
  EXPECT_THROW(slice.validate(), std::invalid_argument);

  SweepSpec bad_suite;
  bad_suite.base.suite = "bs";
  bad_suite.suites = {"no-such-kernel"};
  EXPECT_THROW(bad_suite.validate(), std::invalid_argument);
}

TEST(SweepSpec, JsonRoundTripPreservesIdentity) {
  SweepSpec spec = measure_spec(250);
  spec.suites = {"bs", "crc"};
  spec.seeds = {7, 9};
  spec.slice_runs = 100;
  const SweepSpec back = SweepSpec::from_json(spec.to_json());
  EXPECT_EQ(back.suites, spec.suites);
  EXPECT_EQ(back.seeds, spec.seeds);
  EXPECT_EQ(back.slice_runs, spec.slice_runs);
  EXPECT_EQ(back.id(), spec.id());
  ASSERT_EQ(spec.id().size(), 16u);

  SweepSpec other = spec;
  other.seeds.push_back(11);
  EXPECT_NE(other.id(), spec.id());
}

TEST(SweepSpec, FromJsonFailsClosedOnMalformedInput) {
  EXPECT_THROW(SweepSpec::from_json(json::Value(3.0)),
               std::invalid_argument);
  json::Object o;
  o.emplace_back("suites", "not-an-array");
  EXPECT_THROW(SweepSpec::from_json(json::Value(std::move(o))),
               std::invalid_argument);
}

TEST(SweepSpec, FromJsonRejectsNegativeAndFractionalIntegers) {
  for (const double bad : {-1.0, 2.5}) {
    json::Value slice = measure_spec(100).to_json();
    slice.set("slice_runs", bad);
    json::Array seeds;
    seeds.emplace_back(bad);
    json::Value seed = measure_spec(100).to_json();
    seed.set("seeds", json::Value(std::move(seeds)));
    for (const auto& [member, doc] :
         {std::pair<const char*, json::Value>{"slice_runs", slice},
          std::pair<const char*, json::Value>{"seeds", seed}}) {
      try {
        SweepSpec::from_json(doc);
        ADD_FAILURE() << member << " = " << bad << " loaded";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(member), std::string::npos)
            << e.what();
      }
    }
  }
  // Decimal-string seeds fail the same way, as a member, not a flag.
  for (const char* bad : {"-1", "2.5", "18446744073709551616"}) {
    json::Array seeds;
    seeds.emplace_back(bad);
    json::Value doc = measure_spec(100).to_json();
    doc.set("seeds", json::Value(std::move(seeds)));
    try {
      SweepSpec::from_json(doc);
      ADD_FAILURE() << "seed '" << bad << "' loaded";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("seeds member '") + bad + "'"),
                std::string::npos)
          << what;
      EXPECT_EQ(what.find("flag"), std::string::npos) << what;
    }
  }
}

TEST(ExpandUnits, SlicesMeasurePointsIntoContiguousRuns) {
  SweepSpec spec = measure_spec(250);
  spec.slice_runs = 100;
  const auto points = spec.expand();
  const auto units = expand_units(spec, points);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_TRUE((units[0] == SweepUnit{0, 0, 100}));
  EXPECT_TRUE((units[1] == SweepUnit{0, 100, 100}));
  EXPECT_TRUE((units[2] == SweepUnit{0, 200, 50}));
}

TEST(ExpandUnits, UnslicedPointsAreOneWholeStudyUnit) {
  // slice_runs == 0, and a campaign no larger than the slice, both stay
  // one unit with runs == 0 ("the whole study").
  SweepSpec spec = measure_spec(100);
  const auto points = spec.expand();
  auto units = expand_units(spec, points);
  ASSERT_EQ(units.size(), 1u);
  EXPECT_TRUE((units[0] == SweepUnit{0, 0, 0}));

  spec.slice_runs = 100;
  units = expand_units(spec, spec.expand());
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].runs, 0u);
}

TEST(AssignShards, ContiguousBalancedAndExhaustive) {
  const auto ranges = assign_shards(5, 2);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, 2u);
  EXPECT_EQ(ranges[1].begin, 2u);
  EXPECT_EQ(ranges[1].end, 5u);

  // More shards than units: the extras come out empty, nothing is lost.
  const auto sparse = assign_shards(2, 5);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    covered += sparse[i].size();
    if (i > 0) EXPECT_EQ(sparse[i].begin, sparse[i - 1].end);
  }
  EXPECT_EQ(covered, 2u);

  EXPECT_THROW(assign_shards(4, 0), std::invalid_argument);
}

TEST(AssignShards, ShardCountNeverMovesUnitBoundaries) {
  // The merge contract's foundation: units are defined by the spec alone;
  // shard count only groups them.
  SweepSpec spec = measure_spec(1000);
  spec.slice_runs = 100;
  spec.seeds = {1, 2};
  const auto units = expand_units(spec, spec.expand());
  for (const std::size_t shards : {1u, 3u, 7u, 20u}) {
    const auto ranges = assign_shards(units.size(), shards);
    std::size_t next = 0;
    for (const ShardRange& r : ranges) {
      EXPECT_EQ(r.begin, next);
      next = r.end;
    }
    EXPECT_EQ(next, units.size());
  }
}

}  // namespace
}  // namespace mbcr::sweep
