// Fail-closed loading of persisted documents: every byte-prefix of a
// valid StudySpec document (the "torn file" corpus — what a crashed
// non-atomic writer leaves behind) must raise std::invalid_argument with
// a byte offset, never a half-default spec, a bare runtime_error (exit 1
// instead of 2) or a crash. Same contract for type-mangled specs and for
// the fuzz repro loader over its committed corpus, and for integer
// members that do not fit their field.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/study.hpp"
#include "fuzz/repro.hpp"
#include "util/json.hpp"

namespace mbcr::core {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Parse + from_json, the way `mbcr analyze --spec` consumes a file.
StudySpec load_spec_text(const std::string& text) {
  return StudySpec::from_json(json::parse(text));
}

TEST(SpecHardening, EveryTornPrefixFailsClosedWithAnOffset) {
  StudySpec spec;
  spec.suite = "bs";
  spec.mode = StudyMode::kMeasure;
  spec.measure_runs = 123;
  const std::string full = spec.to_json().dump(2);
  ASSERT_GT(full.size(), 50u);

  // The full document round-trips...
  EXPECT_EQ(load_spec_text(full).measure_runs, 123u);

  // ...and every proper prefix is refused as malformed input. A prefix
  // of a JSON object is never a complete document, so json::parse must
  // throw — and throw the *usage-error* type, with the offset attached.
  for (std::size_t len = 0; len < full.size(); ++len) {
    try {
      load_spec_text(full.substr(0, len));
      FAIL() << "prefix of length " << len << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << "prefix length " << len << ": " << e.what();
    } catch (const std::exception& e) {
      FAIL() << "prefix length " << len
             << " threw a non-usage error: " << e.what();
    }
  }
}

TEST(SpecHardening, TypeMangledSpecsAreUsageErrorsNotRuntimeErrors) {
  // Accessor type mismatches inside from_json must be normalized to
  // invalid_argument so the CLI exits 2.
  for (const char* doc : {
           R"({"suite": 7})",
           R"({"suite": "bs", "mode": 3})",
           R"({"suite": "bs", "measure_runs": "many"})",
           R"({"suite": "bs", "machine": []})",
           R"({"suite": "bs", "campaign": {"master_seed": []}})",
           R"([1, 2, 3])",
       }) {
    EXPECT_THROW(load_spec_text(doc), std::invalid_argument) << doc;
  }
}

TEST(SpecHardening, OutOfRangeIntegersAreUsageErrorsNamingTheMember) {
  // A double-to-integer cast out of range is undefined behaviour, and a
  // fraction is dropped: "sets": -1 used to run 4294967295 sets, 2.5 ran
  // 2, 1e12 ran 3567587328, "max_runs": -5 read as 2^64.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"suite": "bs", "machine": {"il1": {"sets": -1}}})",
       "machine.il1.sets"},
      {R"({"suite": "bs", "machine": {"il1": {"sets": 2.5}}})",
       "machine.il1.sets"},
      {R"({"suite": "bs", "machine": {"dl1": {"sets": 1e12}}})",
       "machine.dl1.sets"},
      {R"({"suite": "bs", "machine": {"l2": {"ways": 4294967296}}})",
       "machine.l2.ways"},
      {R"({"suite": "bs", "convergence": {"max_runs": -5}})",
       "convergence.max_runs"},
      {R"({"suite": "bs", "campaign": {"threads": -1}})", "campaign.threads"},
      {R"({"suite": "bs", "campaign": {"master_seed": -1}})", "seed"},
      {R"({"suite": "bs", "curve_max_exp": 2147483648})", "curve_max_exp"},
      {R"({"suite": "bs", "measure_runs": 1e300})", "measure_runs"},
  };
  for (const auto& [doc, member] : cases) {
    try {
      load_spec_text(doc);
      FAIL() << doc << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(member), std::string::npos)
          << doc << ": " << e.what();
    }
  }
  // Whole numbers in range still load, written in any JSON spelling.
  const StudySpec spec = load_spec_text(
      R"({"suite": "bs", "machine": {"il1": {"sets": 4294967295}},)"
      R"( "convergence": {"max_runs": 2e3}})");
  EXPECT_EQ(spec.config.machine.il1.sets, 4294967295u);
  EXPECT_EQ(spec.config.convergence.max_runs, 2000u);
}

TEST(SpecHardening, ReproLoaderRejectsOutOfRangeIntegers) {
  const std::string full = read_all(
      std::string(MBCR_SOURCE_DIR) +
      "/tests/fuzz_corpus/corpus/seed-all-nested.json");
  for (const auto& [from, to] :
       {std::pair<const char*, const char*>{"\"sets\": 4", "\"sets\": -1"},
        {"\"ways\": 8", "\"ways\": 2.5"},
        {"\"mem_latency\": 100", "\"mem_latency\": -100"}}) {
    std::string text = full;
    const auto at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, std::string(from).size(), to);
    EXPECT_THROW(fuzz::repro_from_json(json::parse(text)),
                 std::invalid_argument)
        << to;
  }
}

TEST(SpecHardening, ReproLoaderFailsClosedOnTornAndMissingFiles) {
  const std::string path = std::string(MBCR_SOURCE_DIR) +
                           "/tests/fuzz_corpus/corpus/seed-all-nested.json";
  const std::string full = read_all(path);
  ASSERT_GT(full.size(), 100u);

  // Missing file: usage error with the path in the message.
  EXPECT_THROW(fuzz::load_repro(path + ".no-such"), std::invalid_argument);

  // Torn prefixes at a byte granularity coarse enough to stay fast but
  // covering the whole document, including cut-offs inside numbers,
  // strings and nested arrays.
  const char* tmp = std::getenv("TMPDIR");
  const std::string torn_path = std::string(tmp != nullptr ? tmp : "/tmp") +
                                "/mbcr_torn_repro.json";
  // Stop before the root object's closing brace (the file may end in a
  // newline, and "everything but the trailing newline" IS complete).
  const std::size_t last = full.find_last_not_of(" \t\r\n");
  ASSERT_NE(last, std::string::npos);
  for (std::size_t len = 0; len <= last; len += 7) {
    {
      std::ofstream torn(torn_path, std::ios::trunc);
      torn << full.substr(0, len);
    }
    try {
      fuzz::load_repro(torn_path);
      FAIL() << "torn repro of length " << len << " was accepted";
    } catch (const std::invalid_argument&) {
      // expected: fail closed as a usage error
    } catch (const std::exception& e) {
      FAIL() << "torn length " << len << ": non-usage error " << e.what();
    }
  }
}

}  // namespace
}  // namespace mbcr::core
