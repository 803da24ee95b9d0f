#include "util/fault.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/cli.hpp"

namespace mbcr::fault {

namespace {

std::uint64_t parse_number(std::string_view text, std::string_view number) {
  try {
    return parse_u64("MBCR_FAULT", std::string(number));
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("MBCR_FAULT '" + std::string(text) +
                                "': bad shard/attempt number '" +
                                std::string(number) + "'");
  }
}

Spec& armed_slot() {
  // Read once, under the static's initialization guard; the library never
  // writes the environment.
  static Spec spec = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = compiled_in() ? std::getenv("MBCR_FAULT") : nullptr;
    return env == nullptr || *env == '\0' ? Spec{} : parse(env);
  }();
  return spec;
}

}  // namespace

bool Spec::targets(std::uint64_t s, std::uint64_t a) const {
  const bool sweep_kind = kind == Kind::kCrash || kind == Kind::kHang ||
                          kind == Kind::kTruncate || kind == Kind::kBadsum;
  return sweep_kind && shard == s && (!attempt || *attempt == a);
}

Spec parse(std::string_view text) {
  Spec spec;
  const std::size_t at = text.find('@');
  const std::string_view mode = text.substr(0, at);
  if (mode == "replay" || mode == "vm") {
    if (at != std::string_view::npos) {
      throw std::invalid_argument("MBCR_FAULT '" + std::string(text) +
                                  "': " + std::string(mode) +
                                  " takes no @shard");
    }
    spec.kind = mode == "replay" ? Kind::kReplay : Kind::kVm;
    return spec;
  }
  if (mode == "crash") {
    spec.kind = Kind::kCrash;
  } else if (mode == "hang") {
    spec.kind = Kind::kHang;
  } else if (mode == "truncate") {
    spec.kind = Kind::kTruncate;
  } else if (mode == "badsum") {
    spec.kind = Kind::kBadsum;
  } else {
    throw std::invalid_argument(
        "MBCR_FAULT '" + std::string(text) +
        "': expected replay|vm|crash|hang|truncate|badsum");
  }
  if (at == std::string_view::npos) {
    throw std::invalid_argument("MBCR_FAULT '" + std::string(text) +
                                "': expected " + std::string(mode) +
                                "@shard[#attempt]");
  }
  std::string_view rest = text.substr(at + 1);
  const std::size_t hash = rest.find('#');
  if (hash != std::string_view::npos) {
    spec.attempt = parse_number(text, rest.substr(hash + 1));
    rest = rest.substr(0, hash);
  }
  spec.shard = parse_number(text, rest);
  return spec;
}

const Spec& armed() { return armed_slot(); }

void set_armed(const Spec& spec) { armed_slot() = spec; }

}  // namespace mbcr::fault
