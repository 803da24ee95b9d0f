// The coverage-guided layer: feature extraction from counter deltas, the
// coverage map, the mutation engine, the input-value shrink pass, and the
// guided driver end to end — determinism (byte-identical corpus and
// coverage document across runs), the guided-beats-blind acceptance bar
// and corpus replayability. The failure-path tests in fuzz_test.cpp run
// the driver guided and blind.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/coverage.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"
#include "ir/printer.hpp"
#include "ir/stmt.hpp"
#include "util/rng.hpp"

namespace mbcr::fuzz {
namespace {

// --- coverage features ----------------------------------------------------

TEST(Coverage, CounterAllowlistAndTimingExclusion) {
  EXPECT_TRUE(coverage_counter("replay.single_level.runs"));
  EXPECT_TRUE(coverage_counter("vm.op.kAdd"));
  EXPECT_TRUE(coverage_counter("tac.groups"));
  EXPECT_TRUE(coverage_counter("verify.programs"));
  EXPECT_TRUE(coverage_counter("fuzz.oracle.replay.runs"));
  // Time-valued counters would break cross-machine determinism.
  EXPECT_FALSE(coverage_counter("fuzz.oracle.replay.wall_ns"));
  EXPECT_FALSE(coverage_counter("study.runs"));  // not an allowlisted family
  EXPECT_FALSE(coverage_counter("fuzz.cases"));
}

TEST(Coverage, FeaturesBucketDeltasByBitWidth) {
  const std::vector<std::pair<std::string, std::uint64_t>> delta = {
      {"replay.single_level.runs", 5},   // bit_width(5) = 3
      {"study.ignored", 1000},           // filtered out
      {"vm.op.kAdd", 1},                 // bit_width(1) = 1
      {"vm.op.kAdd.wall_ns", 12345},     // timing, filtered out
  };
  const std::vector<Feature> features = features_from_delta(delta);
  ASSERT_EQ(features.size(), 2u);
  EXPECT_EQ(features[0], "replay.single_level.runs#3");
  EXPECT_EQ(features[1], "vm.op.kAdd#1");
}

TEST(Coverage, MapTracksFreshFeaturesAndRarity) {
  CoverageMap map;
  const std::vector<Feature> first = map.add({"a#1", "b#2"});
  EXPECT_EQ(first.size(), 2u);
  const std::vector<Feature> second = map.add({"a#1", "c#3"});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], "c#3");
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.hits("a#1"), 2u);
  EXPECT_EQ(map.hits("b#2"), 1u);
  EXPECT_EQ(map.hits("nope"), 0u);
  // Rarity favors the less-hit features: 1/2 + 1/1.
  EXPECT_DOUBLE_EQ(map.rarity({"a#1", "b#2"}), 1.5);
}

// --- the mutation engine --------------------------------------------------

std::string case_fingerprint(const FuzzCaseData& data) {
  Repro repro;
  repro.data = data;
  return repro_to_json(repro).dump(2);
}

TEST(Mutate, IsDeterministicUnderTheSameRngStream) {
  const FuzzCaseData seed = make_case(11, 0, 4);
  const FuzzCaseData donor = make_case(11, 1, 4);
  Xoshiro256 rng_a(42), rng_b(42);
  for (int i = 0; i < 20; ++i) {
    const FuzzCaseData a = mutate_any(seed, &donor, rng_a);
    const FuzzCaseData b = mutate_any(seed, &donor, rng_b);
    EXPECT_EQ(case_fingerprint(a), case_fingerprint(b));
  }
}

TEST(Mutate, MutantsValidateAndGetFreshCaseSeeds) {
  const FuzzCaseData seed = make_case(11, 0, 4);
  const FuzzCaseData donor = make_case(11, 1, 4);
  Xoshiro256 rng(7);
  std::set<std::uint64_t> case_seeds;
  for (int i = 0; i < 50; ++i) {
    const FuzzCaseData m = mutate_any(seed, &donor, rng);
    EXPECT_NO_THROW(ir::validate(m.program));
    EXPECT_NE(m.case_seed, seed.case_seed);
    case_seeds.insert(m.case_seed);
  }
  EXPECT_EQ(case_seeds.size(), 50u);  // every mutant is its own case
}

TEST(Mutate, EveryKindAppliesToARealisticSeed) {
  const FuzzCaseData seed = make_case(3, 2, 4);
  const FuzzCaseData donor = make_case(3, 4, 4);  // small: under splice cap
  for (const MutationKind kind :
       {MutationKind::kSplice, MutationKind::kStmtSwap,
        MutationKind::kConstNudge, MutationKind::kGeometry,
        MutationKind::kInputs, MutationKind::kRunSeeds}) {
    // Some kinds can refuse a particular draw (nothing to swap, cap hit);
    // across a few attempts each kind must apply to a generator case.
    Xoshiro256 rng(mix64(static_cast<std::uint64_t>(kind), 1));
    bool applied = false;
    FuzzCaseData out;
    for (int attempt = 0; attempt < 16 && !applied; ++attempt) {
      applied = mutate_case(seed, &donor, kind, rng, out);
    }
    EXPECT_TRUE(applied) << to_string(kind);
    EXPECT_NO_THROW(ir::validate(out.program)) << to_string(kind);
  }
}

TEST(Mutate, RunSeedScalingStaysInBounds) {
  const FuzzCaseData seed = make_case(3, 0, 4);
  Xoshiro256 rng(9);
  FuzzCaseData out;
  for (int i = 0; i < 100; ++i) {
    if (!mutate_case(seed, nullptr, MutationKind::kRunSeeds, rng, out)) {
      continue;
    }
    EXPECT_GE(out.run_seeds.size(), 1u);
    EXPECT_LE(out.run_seeds.size(), 64u);
    EXPECT_TRUE(out.run_seeds.size() == 8u ||  // doubled
                out.run_seeds.size() == 2u);   // halved
  }
}

TEST(Mutate, SplicedProgramContainsBothBodies) {
  const FuzzCaseData seed = make_case(3, 2, 2);
  const FuzzCaseData donor = make_case(3, 4, 2);
  Xoshiro256 rng(1);
  FuzzCaseData out;
  ASSERT_TRUE(mutate_case(seed, &donor, MutationKind::kSplice, rng, out));
  EXPECT_GE(ir::stmt_count(out.program.body),
            ir::stmt_count(seed.program.body) +
                ir::stmt_count(donor.program.body) - 1);
  EXPECT_NO_THROW(ir::validate(out.program));
}

TEST(Mutate, SpliceRefusesOversizedMutants) {
  const FuzzCaseData seed = make_case(3, 2, 2);
  const FuzzCaseData big = make_case(3, 5, 2);  // 300+ statements
  Xoshiro256 rng(1);
  FuzzCaseData out;
  EXPECT_FALSE(mutate_case(seed, &big, MutationKind::kSplice, rng, out));
  EXPECT_FALSE(mutate_case(seed, nullptr, MutationKind::kSplice, rng, out));
}

// --- input-value shrinking (satellite: value-dependent minimal repro) -----

/// Test-local value-dependent oracle: fails iff some input carries scalar
/// "x" >= 100. Program contents are irrelevant — exactly the shape where
/// only the value passes can make progress on the surviving input.
OracleOutcome value_dependent(const FuzzCaseData& data, bool) {
  for (const ir::InputVector& in : data.inputs) {
    const auto it = in.scalars.find("x");
    if (it != in.scalars.end() && it->second >= 100) {
      return {false, "x >= 100"};
    }
  }
  return {};
}

TEST(FuzzShrink, ValuePassesReduceToTheMinimalInput) {
  FuzzCaseData data = make_case(1, 0, 4);
  ASSERT_FALSE(data.inputs.empty());
  for (ir::InputVector& in : data.inputs) in.scalars["x"] = 6400;
  data.inputs.front().scalars["unrelated"] = 999;

  const Oracle oracle{"value_dependent", "test-local", value_dependent};
  ASSERT_FALSE(oracle.run(data, false).ok);

  const FuzzCaseData shrunk = shrink_case(data, oracle, false, 2000);
  ASSERT_FALSE(oracle.run(shrunk, false).ok);  // the failure is preserved

  // Structural passes got it down to one input; the value passes then
  // halved the live scalar to the minimal failing magnitude and zeroed
  // everything else.
  ASSERT_EQ(shrunk.inputs.size(), 1u);
  const ir::InputVector& in = shrunk.inputs.front();
  const auto x = in.scalars.find("x");
  ASSERT_NE(x, in.scalars.end());
  EXPECT_GE(x->second, 100);
  EXPECT_LT(x->second, 200);  // halving cannot stop above 2x the threshold
  for (const auto& [name, value] : in.scalars) {
    if (name != "x") EXPECT_EQ(value, 0) << name;
  }
  for (const auto& [name, contents] : in.arrays) {
    for (const ir::Value v : contents) EXPECT_EQ(v, 0) << name;
  }
}

// --- the guided driver end to end -----------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One shared computation for the e2e assertions below: two identical
/// guided runs (determinism), one blind run (the baseline), fixed budget
/// and seed. ~15s total, paid once for the whole suite.
struct GuidedRuns {
  FuzzConfig guided_cfg;
  FuzzReport guided_a, guided_b, blind;
  std::string dir_a, dir_b;
};

const GuidedRuns& runs() {
  static const GuidedRuns* cached = [] {
    auto* r = new GuidedRuns;
    r->dir_a = ::testing::TempDir() + "/guided-corpus-a";
    r->dir_b = ::testing::TempDir() + "/guided-corpus-b";
    ::mkdir(r->dir_a.c_str(), 0755);
    ::mkdir(r->dir_b.c_str(), 0755);

    FuzzConfig cfg;
    cfg.programs = 60;
    cfg.seeds = 4;
    cfg.rng_seed = 1;
    cfg.guided = true;
    r->guided_cfg = cfg;

    cfg.corpus_out = r->dir_a;
    r->guided_a = run_fuzz(cfg);
    cfg.corpus_out = r->dir_b;
    r->guided_b = run_fuzz(cfg);

    FuzzConfig blind = r->guided_cfg;
    blind.guided = false;
    r->blind = run_fuzz(blind);
    return r;
  }();
  return *cached;
}

TEST(GuidedFuzz, HealthyRunPassesAndAccountsCases) {
  const GuidedRuns& r = runs();
  EXPECT_TRUE(r.guided_a.ok()) << (r.guided_a.failures.empty()
                                       ? ""
                                       : r.guided_a.failures.front().detail);
  EXPECT_EQ(r.guided_a.cases_run, 60u);
  EXPECT_EQ(r.guided_a.blind_cases + r.guided_a.mutated_cases, 60u);
  EXPECT_TRUE(r.blind.ok());
  EXPECT_EQ(r.blind.mutated_cases, 0u);  // guided=false never mutates
}

TEST(GuidedFuzz, RerunIsByteIdentical) {
  const GuidedRuns& r = runs();
  // Same seed, same budget: identical corpus membership...
  ASSERT_EQ(r.guided_a.corpus.size(), r.guided_b.corpus.size());
  for (std::size_t i = 0; i < r.guided_a.corpus.size(); ++i) {
    EXPECT_EQ(r.guided_a.corpus[i].case_seed, r.guided_b.corpus[i].case_seed);
    EXPECT_EQ(r.guided_a.corpus[i].new_features,
              r.guided_b.corpus[i].new_features);
    // ... byte-identical seed files ...
    ASSERT_FALSE(r.guided_a.corpus[i].file.empty());
    const std::string bytes = slurp(r.guided_a.corpus[i].file);
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(bytes, slurp(r.guided_b.corpus[i].file));
  }
  // ... identical feature map, and a byte-identical coverage document.
  EXPECT_EQ(r.guided_a.feature_hits, r.guided_b.feature_hits);
  FuzzConfig cfg_a = r.guided_cfg;
  cfg_a.corpus_out = r.dir_a;
  FuzzConfig cfg_b = r.guided_cfg;
  cfg_b.corpus_out = r.dir_b;
  EXPECT_EQ(coverage_document(cfg_a, r.guided_a).dump(2),
            coverage_document(cfg_b, r.guided_b).dump(2));
}

TEST(GuidedFuzz, BeatsBlindOnFeaturesForTheSameBudget) {
  const GuidedRuns& r = runs();
  // The tentpole acceptance bar: same case budget, same master seed,
  // strictly more coverage features with guidance on.
  EXPECT_GT(r.guided_a.features_discovered, r.blind.features_discovered);
  EXPECT_GT(r.guided_a.mutated_cases, 0u);
  EXPECT_GT(r.guided_a.corpus.size(), 0u);
}

TEST(GuidedFuzz, CorpusSeedsReplayGreen) {
  const GuidedRuns& r = runs();
  ASSERT_FALSE(r.guided_a.corpus.empty());
  for (const CorpusSeed& seed : r.guided_a.corpus) {
    ASSERT_FALSE(seed.file.empty());
    const Repro repro = load_repro(seed.file);
    const OracleOutcome outcome = run_repro(repro);
    EXPECT_TRUE(outcome.ok) << seed.file << ": " << outcome.detail;
  }
}

TEST(GuidedFuzz, CoverageDocumentShape) {
  const GuidedRuns& r = runs();
  FuzzConfig cfg = r.guided_cfg;
  cfg.corpus_out = r.dir_a;
  const json::Value doc = coverage_document(cfg, r.guided_a);
  EXPECT_EQ(doc.at("schema").as_string(), "mbcr-fuzz-coverage-v1");
  EXPECT_TRUE(doc.at("guided").as_bool());
  EXPECT_EQ(doc.at("cases").as_number(), 60.0);
  EXPECT_EQ(doc.at("features").as_number(),
            static_cast<double>(r.guided_a.features_discovered));
  EXPECT_EQ(doc.at("corpus").as_array().size(), r.guided_a.corpus.size());
  // No timing anywhere: the document must be machine-independent.
  EXPECT_EQ(doc.find("wall_s"), nullptr);
  // Round-trippable JSON.
  EXPECT_EQ(json::parse(doc.dump(2)).dump(2), doc.dump(2));
}

}  // namespace
}  // namespace mbcr::fuzz
