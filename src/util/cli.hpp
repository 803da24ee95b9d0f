// Command-line parsing shared by the benches, the examples and the `mbcr`
// front-end.
//
// Two layers:
//  * `parse_flags` — a pure, non-exiting parser over a flag spec
//    (name -> default value). Supports `--name value` and `--name=value`;
//    a flag whose default is a boolean word ("true"/"false"/"yes"/"no")
//    may also be given bare (`--verbose`). Numeric defaults — including
//    "0"/"1" — always require a value. Unknown flags are an error so that
//    typos in experiment scripts fail loudly.
//  * exiting front-ends: `Cli` (single-command benches/examples) and
//    `SubcommandCli` (`mbcr <command> [--flags] [args]`). Both print usage
//    to stdout and exit 0 on `--help`/`-h`, and print the error plus usage
//    to stderr and exit 2 on bad input.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace mbcr {

/// Outcome of a non-exiting parse.
struct CliParse {
  enum class Status { kOk, kHelp, kError };
  Status status = Status::kOk;
  std::string error;                          ///< set when status == kError
  std::map<std::string, std::string> values;  ///< spec defaults, overlaid

  bool ok() const { return status == Status::kOk; }
};

/// Parses `args` (no argv[0]) against `spec`. Bare tokens are collected
/// into `positionals` when given, and are an error otherwise. A boolean
/// flag reads as "true" when given bare at the end of the argument list
/// or directly before another flag (`--csv --seed 7`); any other
/// following token is consumed as its value (`--csv 0`). Never prints,
/// never exits.
CliParse parse_flags(const std::vector<std::string>& args,
                     const std::map<std::string, std::string>& spec,
                     std::vector<std::string>* positionals = nullptr);

/// Usage text for a flag spec (description + per-flag defaults).
std::string usage_text(const std::string& description,
                       const std::map<std::string, std::string>& spec);

/// "1"/"true"/"yes" => true; everything else false.
bool truthy(const std::string& value);

/// Strict boolean parsing for flag *values*: accepts 1/0/true/false/yes/no
/// and throws std::invalid_argument otherwise. Use this (not `truthy`) when
/// a silently-ignored typo would change an experiment.
bool parse_bool(const char* flag, const std::string& value);

/// Strict unsigned parsing for flag values: the whole value must be a
/// decimal integer in [0, 2^64) — no sign, no whitespace, no trailing
/// text. Throws std::invalid_argument naming the flag otherwise.
std::uint64_t parse_u64(const char* flag, const std::string& value);

/// `parse_u64` narrowed to the integer type `T`: a value above T's maximum
/// throws std::invalid_argument naming the flag instead of wrapping
/// (`--sets 4294967297` must not run a 1-set cache).
template <typename T>
T parse_uint(const char* flag, const std::string& value) {
  const std::uint64_t v = parse_u64(flag, value);
  const auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  if (v > max) {
    throw std::invalid_argument(std::string("flag --") + flag + ": " + value +
                                " is out of range (at most " +
                                std::to_string(max) + ")");
  }
  return static_cast<T>(v);
}

/// The CLI usage-error exit path: prints `program: message` plus a help
/// hint to stderr and exits 2 — the same contract as Cli/SubcommandCli
/// parse errors. Front-ends route bad flag *values* (unknown enum
/// spellings, malformed numbers) through this so they are indistinguishable
/// from unknown flags: loud, on stderr, exit code 2.
[[noreturn]] void exit_usage_error(const std::string& program,
                                   const std::string& message);

/// Parse-or-exit front-end for single-command binaries (benches, examples).
class Cli {
public:
  /// Parses argv. `spec` maps flag name (without dashes) to default value;
  /// only flags present in the spec are accepted. `--help` prints usage to
  /// stdout and exits 0; errors go to stderr and exit 2.
  Cli(int argc, char** argv, std::map<std::string, std::string> spec,
      std::string description);

  std::string str(const std::string& name) const;
  /// `parse_u64` of the value; a bad value is a usage error (exit 2).
  std::uint64_t integer(const std::string& name) const;
  double real(const std::string& name) const;
  bool flag(const std::string& name) const;  ///< "1"/"true"/"yes" => true

private:
  std::map<std::string, std::string> values_;
};

/// Subcommand-aware parser: `prog <command> [--flags] [positionals]`.
/// `help`, `--help` and `-h` work at the top level and per command.
class SubcommandCli {
public:
  struct Command {
    std::string name;
    std::string summary;
    std::map<std::string, std::string> flags;  ///< name -> default
    std::vector<std::string> positionals;      ///< required, in order
  };

  struct Parsed {
    CliParse::Status status = CliParse::Status::kOk;
    std::string command;  ///< resolved subcommand ("" on top-level help)
    std::string error;
    std::map<std::string, std::string> values;  ///< flags + named positionals

    bool ok() const { return status == CliParse::Status::kOk; }
    const std::string& str(const std::string& name) const;
    /// `parse_u64` of the value; throws std::invalid_argument on a bad one
    /// (the front-end's usage-error path, exit 2).
    std::uint64_t integer(const std::string& name) const;
    double real(const std::string& name) const;
    bool flag(const std::string& name) const;
  };

  SubcommandCli(std::string program, std::string description);

  void add_command(Command command);
  const Command* find(const std::string& name) const;

  /// Non-exiting parse of `args` (no argv[0]).
  Parsed parse(const std::vector<std::string>& args) const;

  /// Help => usage on stdout, exit 0. Error => message + hint on stderr,
  /// exit 2. Otherwise returns the parsed command.
  Parsed parse_or_exit(int argc, char** argv) const;

  std::string usage() const;                          ///< top-level
  std::string command_usage(const Command& cmd) const;

private:
  std::string program_;
  std::string description_;
  std::vector<Command> commands_;
};

}  // namespace mbcr
