#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace mbcr {

namespace {

// Only word literals mark a flag as boolean (bare-able): "0"/"1" defaults
// are how numeric flags like --scale/--threads spell theirs, and those
// must keep requiring a value.
bool is_bool_literal(const std::string& v) {
  return v == "true" || v == "false" || v == "yes" || v == "no";
}

CliParse error(std::string message,
               const std::map<std::string, std::string>& spec) {
  CliParse out;
  out.status = CliParse::Status::kError;
  out.error = std::move(message);
  out.values = spec;
  return out;
}

}  // namespace

bool truthy(const std::string& value) {
  return value == "1" || value == "true" || value == "yes";
}

bool parse_bool(const char* flag, const std::string& value) {
  if (value == "1" || value == "true" || value == "yes") return true;
  if (value == "0" || value == "false" || value == "no") return false;
  throw std::invalid_argument(std::string("flag --") + flag +
                              ": expected a boolean "
                              "(1|0|true|false|yes|no), got '" +
                              value + "'");
}

std::uint64_t parse_u64(const char* flag, const std::string& value) {
  std::uint64_t out = 0;
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || end != value.data() + value.size()) {
    throw std::invalid_argument(std::string("flag --") + flag +
                                ": expected a non-negative integer, got '" +
                                value + "'");
  }
  return out;
}

void exit_usage_error(const std::string& program,
                      const std::string& message) {
  std::cerr << program << ": " << message << "\n"
            << "Run '" << program << " --help' for usage.\n";
  std::exit(2);
}

CliParse parse_flags(const std::vector<std::string>& args,
                     const std::map<std::string, std::string>& spec,
                     std::vector<std::string>* positionals) {
  CliParse out;
  out.values = spec;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      out.status = CliParse::Status::kHelp;
      return out;
    }
    if (arg.rfind("--", 0) != 0) {
      if (positionals) {
        positionals->push_back(arg);
        continue;
      }
      return error("unexpected argument: " + arg, spec);
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    const auto it = out.values.find(name);
    if (it == out.values.end()) {
      return error("unknown flag --" + name, spec);
    }
    if (!have_value) {
      // A flag whose default is a boolean literal is bare-able: it reads
      // as "true" when it ends the argument list or the next token is
      // another flag, and consumes the next token as its value otherwise
      // (so `--threads 4` keeps working for flags defaulting to "0").
      const bool next_is_flag =
          i + 1 < args.size() && args[i + 1].rfind("--", 0) == 0;
      if (is_bool_literal(spec.at(name)) &&
          (i + 1 >= args.size() || next_is_flag)) {
        value = "true";
      } else if (i + 1 < args.size()) {
        value = args[++i];
      } else {
        return error("flag --" + name + " needs a value", spec);
      }
    }
    it->second = value;
  }
  return out;
}

std::string usage_text(const std::string& description,
                       const std::map<std::string, std::string>& spec) {
  std::ostringstream ss;
  ss << description << "\nFlags (default):\n";
  for (const auto& [k, v] : spec) {
    ss << "  --" << k << " (" << (v.empty() ? "\"\"" : v) << ")\n";
  }
  return ss.str();
}

Cli::Cli(int argc, char** argv, std::map<std::string, std::string> spec,
         std::string description) {
  const std::vector<std::string> args(argv + (argc > 0 ? 1 : 0), argv + argc);
  CliParse parsed = parse_flags(args, spec);
  if (parsed.status == CliParse::Status::kHelp) {
    std::cout << usage_text(description, spec);
    std::exit(0);
  }
  if (parsed.status == CliParse::Status::kError) {
    std::cerr << parsed.error << "\n" << usage_text(description, spec);
    std::exit(2);
  }
  values_ = std::move(parsed.values);
}

std::string Cli::str(const std::string& name) const {
  return values_.at(name);
}

std::uint64_t Cli::integer(const std::string& name) const {
  try {
    return parse_u64(name.c_str(), values_.at(name));
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

double Cli::real(const std::string& name) const {
  return std::stod(values_.at(name));
}

bool Cli::flag(const std::string& name) const {
  return truthy(values_.at(name));
}

const std::string& SubcommandCli::Parsed::str(const std::string& name) const {
  return values.at(name);
}

std::uint64_t SubcommandCli::Parsed::integer(const std::string& name) const {
  return parse_u64(name.c_str(), values.at(name));
}

double SubcommandCli::Parsed::real(const std::string& name) const {
  return std::stod(values.at(name));
}

bool SubcommandCli::Parsed::flag(const std::string& name) const {
  return truthy(values.at(name));
}

SubcommandCli::SubcommandCli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void SubcommandCli::add_command(Command command) {
  commands_.push_back(std::move(command));
}

const SubcommandCli::Command* SubcommandCli::find(
    const std::string& name) const {
  for (const Command& c : commands_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

SubcommandCli::Parsed SubcommandCli::parse(
    const std::vector<std::string>& args) const {
  Parsed out;
  auto fail = [&](std::string message) {
    out.status = CliParse::Status::kError;
    out.error = std::move(message);
    return out;
  };
  if (args.empty()) return fail("missing subcommand");
  if (args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
    out.status = CliParse::Status::kHelp;
    return out;
  }
  const Command* cmd = find(args[0]);
  if (!cmd) return fail("unknown subcommand: " + args[0]);
  out.command = cmd->name;

  std::vector<std::string> positionals;
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  CliParse flags = parse_flags(rest, cmd->flags, &positionals);
  if (flags.status == CliParse::Status::kHelp) {
    out.status = CliParse::Status::kHelp;
    return out;
  }
  if (flags.status == CliParse::Status::kError) return fail(flags.error);
  if (positionals.size() > cmd->positionals.size()) {
    return fail("unexpected argument: " +
                positionals[cmd->positionals.size()]);
  }
  if (positionals.size() < cmd->positionals.size()) {
    return fail("missing <" + cmd->positionals[positionals.size()] + ">");
  }
  out.values = std::move(flags.values);
  for (std::size_t i = 0; i < positionals.size(); ++i) {
    out.values[cmd->positionals[i]] = positionals[i];
  }
  return out;
}

SubcommandCli::Parsed SubcommandCli::parse_or_exit(int argc,
                                                   char** argv) const {
  const std::vector<std::string> args(argv + (argc > 0 ? 1 : 0), argv + argc);
  Parsed parsed = parse(args);
  if (parsed.status == CliParse::Status::kHelp) {
    const Command* cmd = find(parsed.command);
    std::cout << (cmd ? command_usage(*cmd) : usage());
    std::exit(0);
  }
  if (parsed.status == CliParse::Status::kError) {
    exit_usage_error(program_, parsed.error);
  }
  return parsed;
}

std::string SubcommandCli::usage() const {
  std::ostringstream ss;
  ss << description_ << "\n\nUsage: " << program_
     << " <command> [--flags] [args]\n\nCommands:\n";
  std::size_t width = 0;
  for (const Command& c : commands_) width = std::max(width, c.name.size());
  for (const Command& c : commands_) {
    ss << "  " << c.name << std::string(width - c.name.size() + 2, ' ')
       << c.summary << "\n";
  }
  ss << "\nRun '" << program_ << " <command> --help' for that command's "
     << "flags.\n";
  return ss.str();
}

std::string SubcommandCli::command_usage(const Command& cmd) const {
  std::ostringstream ss;
  ss << "Usage: " << program_ << " " << cmd.name << " [--flags]";
  for (const std::string& p : cmd.positionals) ss << " <" << p << ">";
  ss << "\n" << cmd.summary << "\n";
  if (!cmd.flags.empty()) {
    ss << "Flags (default):\n";
    for (const auto& [k, v] : cmd.flags) {
      ss << "  --" << k << " (" << (v.empty() ? "\"\"" : v) << ")\n";
    }
  }
  return ss.str();
}

}  // namespace mbcr
