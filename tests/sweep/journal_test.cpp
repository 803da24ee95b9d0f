// Journal verification is the sweep's trust boundary: a shard file is
// either fully verified (parse + schema + sweep id + shard + arity +
// checksum) or it reads as "not completed". These tests damage a valid
// entry every way the fault hooks can and assert the verifier refuses
// each one with a usable reason — plus the merge layer's partial-result
// contract over a hand-built journal.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/study.hpp"
#include "sweep/journal.hpp"
#include "sweep/merge.hpp"
#include "sweep/shard.hpp"
#include "util/atomic_file.hpp"

namespace mbcr::sweep {
namespace {

std::string fresh_dir(const char* name) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
  std::remove((dir + "/manifest.json").c_str());
  for (int s = 0; s < 8; ++s) {
    std::remove(shard_path(dir, static_cast<std::size_t>(s)).c_str());
  }
  ensure_journal_dirs(dir);
  return dir;
}

SweepSpec small_measure_spec() {
  SweepSpec spec;
  spec.base.suite = "bs";
  spec.base.mode = core::StudyMode::kMeasure;
  spec.base.measure_runs = 40;
  spec.slice_runs = 20;
  return spec;
}

/// Executes one unit exactly like run_worker does.
json::Value run_unit(const core::StudySpec& point, const SweepUnit& unit) {
  return (unit.runs == 0
              ? core::run_study(point)
              : core::run_measure_slice(point, unit.first_run, unit.runs))
      .to_json();
}

TEST(Journal, ManifestRoundTripsAndFailsClosed) {
  const std::string dir = fresh_dir("mbcr_journal_manifest");
  const SweepSpec spec = small_measure_spec();
  Manifest m;
  m.sweep_id = spec.id();
  m.spec = spec.to_json();
  m.shards = 2;
  m.units = 2;
  m.points = 1;
  write_manifest(dir, m);

  const Manifest back = load_manifest(dir);
  EXPECT_EQ(back.sweep_id, m.sweep_id);
  EXPECT_EQ(back.shards, 2u);
  EXPECT_EQ(back.units, 2u);
  EXPECT_EQ(back.points, 1u);
  EXPECT_EQ(SweepSpec::from_json(back.spec).id(), spec.id());

  // Missing and torn manifests are usage errors, never silent defaults.
  EXPECT_THROW(load_manifest(dir + "-no-such"), std::invalid_argument);
  util::write_file_atomic(manifest_path(dir), "{\"schema\": \"mbcr-sw");
  EXPECT_THROW(load_manifest(dir), std::invalid_argument);
}

TEST(Journal, ShardResultRoundTripsAndRejectsEveryDamageMode) {
  const std::string dir = fresh_dir("mbcr_journal_shard");
  const SweepSpec spec = small_measure_spec();
  const auto points = spec.expand();
  const auto units = expand_units(spec, points);
  ASSERT_EQ(units.size(), 2u);

  ShardResult result;
  result.shard = 0;
  result.units = {units[0]};
  result.studies = {run_unit(points[0], units[0])};
  const std::string sweep_id = spec.id();

  // Missing before the write.
  std::string why;
  EXPECT_FALSE(load_shard_result(dir, sweep_id, 0, &why).has_value());
  EXPECT_NE(why.find("missing"), std::string::npos);

  write_shard_result(dir, sweep_id, result);
  const auto loaded = load_shard_result(dir, sweep_id, 0, &why);
  ASSERT_TRUE(loaded.has_value()) << why;
  ASSERT_EQ(loaded->units.size(), 1u);
  EXPECT_TRUE(loaded->units[0] == units[0]);
  ASSERT_EQ(loaded->studies.size(), 1u);
  EXPECT_EQ(loaded->studies[0].dump(0), result.studies[0].dump(0));

  const std::string valid = shard_result_text(sweep_id, result);

  // Torn write: half the bytes, parse must fail.
  {
    std::ofstream torn(shard_path(dir, 0), std::ios::trunc);
    torn << valid.substr(0, valid.size() / 2);
  }
  EXPECT_FALSE(load_shard_result(dir, sweep_id, 0, &why).has_value());

  // Checksum lie: valid JSON, zeroed digest.
  {
    std::string bad = valid;
    const std::size_t pos = bad.rfind("fnv1a64:");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos + 8, 16, "0000000000000000");
    util::write_file_atomic(shard_path(dir, 0), bad);
  }
  EXPECT_FALSE(load_shard_result(dir, sweep_id, 0, &why).has_value());
  EXPECT_NE(why.find("checksum"), std::string::npos);

  // Wrong sweep: a valid file for another spec id.
  util::write_file_atomic(shard_path(dir, 0), valid);
  EXPECT_FALSE(
      load_shard_result(dir, "ffffffffffffffff", 0, &why).has_value());
  EXPECT_NE(why.find("sweep id"), std::string::npos);

  // Single-byte payload corruption inside valid JSON: checksum catches it.
  {
    std::string bad = valid;
    const std::size_t pos = bad.find("\"times\"");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t digit = bad.find_first_of("123456789", pos);
    ASSERT_NE(digit, std::string::npos);
    bad[digit] = bad[digit] == '1' ? '2' : '1';
    util::write_file_atomic(shard_path(dir, 0), bad);
  }
  EXPECT_FALSE(load_shard_result(dir, sweep_id, 0, &why).has_value());
  EXPECT_NE(why.find("checksum"), std::string::npos);
}

/// `text` with the first `"member": value` replaced by `"member": bad`.
std::string with_member(std::string text, const std::string& member,
                        const std::string& bad) {
  const std::string key = "\"" + member + "\": ";
  const std::size_t pos = text.find(key);
  EXPECT_NE(pos, std::string::npos) << member;
  if (pos == std::string::npos) return text;
  const std::size_t begin = pos + key.size();
  const std::size_t end = text.find_first_of(",\n}", begin);
  return text.replace(begin, end - begin, bad);
}

TEST(Journal, NegativeOrFractionalCountsFailClosedNamingTheMember) {
  const std::string dir = fresh_dir("mbcr_journal_integers");
  const SweepSpec spec = small_measure_spec();
  Manifest m;
  m.sweep_id = spec.id();
  m.spec = spec.to_json();
  m.shards = 2;
  m.units = 2;
  m.points = 1;
  write_manifest(dir, m);
  const std::string manifest = util::read_file(manifest_path(dir));
  for (const char* member : {"shards", "units", "points"}) {
    for (const char* bad : {"-1", "2.5"}) {
      util::write_file_atomic(manifest_path(dir),
                              with_member(manifest, member, bad));
      try {
        load_manifest(dir);
        ADD_FAILURE() << member << " = " << bad << " loaded";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(member), std::string::npos)
            << e.what();
      }
    }
  }

  const auto points = spec.expand();
  const auto units = expand_units(spec, points);
  ShardResult result;
  result.shard = 0;
  result.units = {units[0]};
  result.studies = {run_unit(points[0], units[0])};
  const std::string valid = shard_result_text(spec.id(), result);
  for (const char* member : {"shard", "point", "first_run", "runs"}) {
    for (const char* bad : {"-1", "2.5"}) {
      util::write_file_atomic(shard_path(dir, 0),
                              with_member(valid, member, bad));
      std::string why;
      EXPECT_FALSE(load_shard_result(dir, spec.id(), 0, &why).has_value())
          << member << " = " << bad;
      EXPECT_NE(why.find(std::string(member) + ": expected an integer"),
                std::string::npos)
          << why;
    }
  }
}

TEST(Merge, PartialMultiPointSweepKeepsCompletePointsAndNamesTheRest) {
  const std::string dir = fresh_dir("mbcr_merge_partial");
  SweepSpec spec;
  spec.base.suite = "bs";
  spec.base.mode = core::StudyMode::kMeasure;
  spec.base.measure_runs = 30;
  spec.suites = {"bs", "crc"};

  const auto points = spec.expand();
  const auto units = expand_units(spec, points);
  ASSERT_EQ(units.size(), 2u);

  Manifest m;
  m.sweep_id = spec.id();
  m.spec = spec.to_json();
  m.shards = 2;
  m.units = units.size();
  m.points = points.size();
  write_manifest(dir, m);

  // Shard 0 completed; shard 1 never wrote.
  ShardResult r0;
  r0.shard = 0;
  r0.units = {units[0]};
  r0.studies = {run_unit(points[0], units[0])};
  write_shard_result(dir, m.sweep_id, r0);

  const MergeOutput merged = merge_sweep(dir);
  EXPECT_TRUE(merged.partial);
  EXPECT_TRUE(merged.any_results());
  EXPECT_EQ(merged.points, 2u);
  EXPECT_EQ(merged.points_complete, 1u);
  ASSERT_EQ(merged.failed_shards.size(), 1u);
  EXPECT_EQ(merged.failed_shards[0], 1u);

  EXPECT_EQ(merged.doc.at("schema").as_string(), "mbcr-sweep-v1");
  EXPECT_EQ(merged.doc.at("sweep_id").as_string(), m.sweep_id);
  EXPECT_EQ(merged.doc.at("studies").as_array().size(), 1u);
  const json::Array& failed = merged.doc.at("failed_shards").as_array();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].at("shard").as_number(), 1.0);
  EXPECT_FALSE(failed[0].at("reason").as_string().empty());
  EXPECT_EQ(failed[0].at("units").as_array().size(), 1u);
}

TEST(Merge, PartialSinglePointMeasureEmitsUsablePrefixWithProvenance) {
  const std::string dir = fresh_dir("mbcr_merge_single_partial");
  const SweepSpec spec = small_measure_spec();  // 2 slices of 20 runs
  const auto points = spec.expand();
  const auto units = expand_units(spec, points);
  ASSERT_EQ(units.size(), 2u);

  Manifest m;
  m.sweep_id = spec.id();
  m.spec = spec.to_json();
  m.shards = 2;
  m.units = units.size();
  m.points = 1;
  write_manifest(dir, m);

  ShardResult r0;
  r0.shard = 0;
  r0.units = {units[0]};
  r0.studies = {run_unit(points[0], units[0])};
  write_shard_result(dir, m.sweep_id, r0);

  const MergeOutput merged = merge_sweep(dir);
  EXPECT_TRUE(merged.partial);
  EXPECT_TRUE(merged.any_results());
  // The document is a v6 study carrying the covered 20-run prefix plus
  // the additive provenance blocks.
  EXPECT_EQ(merged.doc.at("schema").as_string(), "mbcr-study-v6");
  const json::Value& sweep_block = merged.doc.at("sweep");
  EXPECT_EQ(sweep_block.at("sweep_id").as_string(), m.sweep_id);
  EXPECT_FALSE(sweep_block.at("complete").as_bool());
  EXPECT_EQ(merged.doc.at("failed_shards").as_array().size(), 1u);
  const json::Array& samples = merged.doc.at("samples").as_array();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].at("times").as_array().size(), 20u);

  // Nothing verified at all: still a well-formed document, zero usable
  // results.
  std::remove(shard_path(dir, 0).c_str());
  const MergeOutput empty = merge_sweep(dir);
  EXPECT_TRUE(empty.partial);
  EXPECT_FALSE(empty.any_results());
  EXPECT_EQ(empty.doc.at("schema").as_string(), "mbcr-sweep-v1");
  EXPECT_EQ(empty.doc.at("studies").as_array().size(), 0u);
  EXPECT_EQ(empty.doc.at("failed_shards").as_array().size(), 2u);
}

}  // namespace
}  // namespace mbcr::sweep
