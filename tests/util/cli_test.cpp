#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace mbcr {
namespace {

const std::map<std::string, std::string> kSpec = {
    {"scale", "1"}, {"seed", "42"}, {"csv", "false"}, {"name", ""}};

TEST(ParseFlags, DefaultsSurviveEmptyArgs) {
  const CliParse p = parse_flags({}, kSpec);
  EXPECT_TRUE(p.ok());
  EXPECT_EQ(p.values.at("scale"), "1");
  EXPECT_EQ(p.values.at("seed"), "42");
}

TEST(ParseFlags, AcceptsSpaceAndEqualsForms) {
  const CliParse p =
      parse_flags({"--seed", "7", "--scale=2.5", "--name=bs"}, kSpec);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.values.at("seed"), "7");
  EXPECT_EQ(p.values.at("scale"), "2.5");
  EXPECT_EQ(p.values.at("name"), "bs");
}

TEST(ParseFlags, NumericZeroOneDefaultsAreNotBooleans) {
  // `scale` defaults to "1" but is numeric: the space-separated form must
  // keep working, and giving it bare must stay a loud error.
  const CliParse p = parse_flags({"--scale", "2.5"}, kSpec);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.values.at("scale"), "2.5");

  const CliParse bare = parse_flags({"--scale"}, kSpec);
  EXPECT_EQ(bare.status, CliParse::Status::kError);
  EXPECT_NE(bare.error.find("--scale"), std::string::npos);
}

TEST(ParseFlags, BooleanFlagConsumesAnyFollowingNonFlagToken) {
  // The flip side of bare-ability: a following non-flag token is always
  // consumed as the value, even a non-boolean one.
  const CliParse p = parse_flags({"--csv", "file.csv"}, kSpec);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.values.at("csv"), "file.csv");
}

TEST(ParseFlags, BareBooleanFlagReadsTrue) {
  const CliParse p = parse_flags({"--csv"}, kSpec);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.values.at("csv"), "true");
  EXPECT_TRUE(truthy(p.values.at("csv")));
}

TEST(ParseFlags, BooleanFlagStillConsumesBooleanLiteral) {
  const CliParse p = parse_flags({"--csv", "0", "--seed", "9"}, kSpec);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.values.at("csv"), "0");
  EXPECT_EQ(p.values.at("seed"), "9");
}

TEST(ParseFlags, BareBooleanAtEndOfArgs) {
  const CliParse p = parse_flags({"--seed", "9", "--csv"}, kSpec);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.values.at("csv"), "true");
}

TEST(ParseFlags, BareBooleanFollowedByAnotherFlag) {
  const CliParse p = parse_flags({"--csv", "--seed", "9"}, kSpec);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.values.at("csv"), "true");
  EXPECT_EQ(p.values.at("seed"), "9");
}

TEST(ParseFlags, UnknownFlagIsAnError) {
  const CliParse p = parse_flags({"--bogus", "1"}, kSpec);
  EXPECT_EQ(p.status, CliParse::Status::kError);
  EXPECT_NE(p.error.find("--bogus"), std::string::npos);
}

TEST(ParseFlags, MissingValueIsAnError) {
  const CliParse p = parse_flags({"--seed"}, kSpec);
  EXPECT_EQ(p.status, CliParse::Status::kError);
  EXPECT_NE(p.error.find("--seed"), std::string::npos);
}

TEST(ParseFlags, HelpWinsOverEverything) {
  EXPECT_EQ(parse_flags({"--help"}, kSpec).status, CliParse::Status::kHelp);
  EXPECT_EQ(parse_flags({"-h"}, kSpec).status, CliParse::Status::kHelp);
  EXPECT_EQ(parse_flags({"--seed", "7", "--help"}, kSpec).status,
            CliParse::Status::kHelp);
}

TEST(ParseFlags, PositionalsCollectedOnlyWhenRequested) {
  const CliParse rejected = parse_flags({"file.json"}, kSpec);
  EXPECT_EQ(rejected.status, CliParse::Status::kError);

  std::vector<std::string> positionals;
  const CliParse p =
      parse_flags({"file.json", "--seed", "7"}, kSpec, &positionals);
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(positionals.size(), 1u);
  EXPECT_EQ(positionals[0], "file.json");
  EXPECT_EQ(p.values.at("seed"), "7");
}

TEST(ParseFlags, UsageTextListsFlagsAndDefaults) {
  const std::string usage = usage_text("demo", kSpec);
  EXPECT_NE(usage.find("demo"), std::string::npos);
  EXPECT_NE(usage.find("--seed (42)"), std::string::npos);
  EXPECT_NE(usage.find("--name (\"\")"), std::string::npos);
}

TEST(Truthy, RecognizesTrueLiterals) {
  EXPECT_TRUE(truthy("1"));
  EXPECT_TRUE(truthy("true"));
  EXPECT_TRUE(truthy("yes"));
  EXPECT_FALSE(truthy("0"));
  EXPECT_FALSE(truthy("false"));
  EXPECT_FALSE(truthy(""));
  EXPECT_FALSE(truthy("2"));
}

SubcommandCli make_cli() {
  SubcommandCli cli("tool", "a test tool");
  cli.add_command({"analyze", "run analysis",
                   {{"suite", ""}, {"runs", "100"}, {"verbose", "false"}},
                   {}});
  cli.add_command({"report", "print a saved result", {}, {"file"}});
  return cli;
}

TEST(SubcommandCli, ParsesCommandAndFlags) {
  const auto p =
      make_cli().parse({"analyze", "--suite=bs", "--runs", "5", "--verbose"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.command, "analyze");
  EXPECT_EQ(p.str("suite"), "bs");
  EXPECT_EQ(p.integer("runs"), 5u);
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(SubcommandCli, UnknownSubcommandIsAnError) {
  const auto p = make_cli().parse({"bogus"});
  EXPECT_EQ(p.status, CliParse::Status::kError);
  EXPECT_NE(p.error.find("bogus"), std::string::npos);
}

TEST(SubcommandCli, MissingSubcommandIsAnError) {
  EXPECT_EQ(make_cli().parse({}).status, CliParse::Status::kError);
}

TEST(SubcommandCli, UnknownFlagInCommandIsAnError) {
  const auto p = make_cli().parse({"analyze", "--bogus=1"});
  EXPECT_EQ(p.status, CliParse::Status::kError);
  EXPECT_NE(p.error.find("--bogus"), std::string::npos);
}

TEST(SubcommandCli, HelpAtTopLevelAndPerCommand) {
  EXPECT_EQ(make_cli().parse({"--help"}).status, CliParse::Status::kHelp);
  EXPECT_EQ(make_cli().parse({"help"}).status, CliParse::Status::kHelp);
  const auto p = make_cli().parse({"analyze", "--help"});
  EXPECT_EQ(p.status, CliParse::Status::kHelp);
  EXPECT_EQ(p.command, "analyze");  // so help can show that command's flags
}

TEST(SubcommandCli, PositionalsAreNamedAndRequired) {
  const auto ok = make_cli().parse({"report", "out.json"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.str("file"), "out.json");

  const auto missing = make_cli().parse({"report"});
  EXPECT_EQ(missing.status, CliParse::Status::kError);
  EXPECT_NE(missing.error.find("<file>"), std::string::npos);

  const auto extra = make_cli().parse({"report", "a.json", "b.json"});
  EXPECT_EQ(extra.status, CliParse::Status::kError);
  EXPECT_NE(extra.error.find("b.json"), std::string::npos);
}

TEST(ParseBool, StrictBooleanValues) {
  EXPECT_TRUE(parse_bool("x", "1"));
  EXPECT_TRUE(parse_bool("x", "true"));
  EXPECT_TRUE(parse_bool("x", "yes"));
  EXPECT_FALSE(parse_bool("x", "0"));
  EXPECT_FALSE(parse_bool("x", "false"));
  EXPECT_FALSE(parse_bool("x", "no"));
  // `truthy` reads garbage as false; parse_bool must refuse it instead.
  EXPECT_FALSE(truthy("maybe"));
  EXPECT_THROW(parse_bool("measure-pub", "maybe"), std::invalid_argument);
  EXPECT_THROW(parse_bool("x", ""), std::invalid_argument);
  EXPECT_THROW(parse_bool("x", "TRUE"), std::invalid_argument);
}

TEST(ParseU64, StrictUnsignedValues) {
  EXPECT_EQ(parse_u64("x", "0"), 0u);
  EXPECT_EQ(parse_u64("x", "18446744073709551615"),
            18446744073709551615ull);
  for (const char* bad : {"-1", "2x", "abc", "", " 5", "5 ", "+5", "1e3",
                          "18446744073709551616"}) {
    EXPECT_THROW(parse_u64("x", bad), std::invalid_argument) << bad;
  }
  try {
    parse_u64("programs", "2x");
    FAIL() << "2x parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "flag --programs: expected a non-negative integer, got '2x'");
  }
}

TEST(SubcommandCli, IntegerFlagsAreStrict) {
  // `integer()` must refuse what a bare stoll would half-read: negatives
  // wrapping into huge sizes, trailing junk, non-numbers.
  for (const char* bad : {"-1", "2x", "abc"}) {
    const auto p = make_cli().parse({"analyze", "--runs", bad});
    ASSERT_TRUE(p.ok());
    EXPECT_THROW(p.integer("runs"), std::invalid_argument) << bad;
  }
}

using CliDeathTest = ::testing::Test;

TEST(CliDeathTest, IntegerFlagWithBadValueExits2) {
  std::vector<std::string> args = {"bench", "--seed", "-1"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const Cli cli(static_cast<int>(argv.size()), argv.data(), kSpec, "a bench");
  EXPECT_EXIT(cli.integer("seed"), ::testing::ExitedWithCode(2),
              "flag --seed: expected a non-negative integer, got '-1'");
}

TEST(CliDeathTest, ExitUsageErrorPrintsToStderrAndExits2) {
  // The shared usage-error path: bad enum flag values route through this
  // so they behave exactly like unknown flags (stderr, exit 2).
  EXPECT_EXIT(exit_usage_error("mbcr", "unknown L2 policy 'bogus'"),
              ::testing::ExitedWithCode(2),
              "mbcr: unknown L2 policy 'bogus'");
}

TEST(SubcommandCli, UsageListsCommands) {
  const auto cli = make_cli();
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("analyze"), std::string::npos);
  EXPECT_NE(usage.find("report"), std::string::npos);
  const auto* cmd = cli.find("report");
  ASSERT_NE(cmd, nullptr);
  EXPECT_NE(cli.command_usage(*cmd).find("<file>"), std::string::npos);
  EXPECT_EQ(cli.find("nope"), nullptr);
}

}  // namespace
}  // namespace mbcr
