// The benchmark's one registry: workloads x studies. Every study is a
// `core::StudySpec` built from the same flag map `mbcr analyze` takes, so
// any study the benchmark times can be replayed by hand with the CLI
// (`mbcr analyze --suite crc --mode pub_tac --tac-cap 40000 ...`).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/study.hpp"

namespace studybench {

/// `kFull` is the measured setting; `kTiny` shrinks every run cap so the
/// whole matrix runs in seconds (the benchmark's own test uses it).
enum class Size { kFull, kTiny };

using Flags = std::map<std::string, std::string>;

struct StudyDef {
  std::string name;  ///< unique within its workload, e.g. "crc.pub_tac"
  Flags flags;       ///< StudySpec::from_flags input, minus seed/threads
};

/// Campaign concurrency of every study, at most the host's core count.
inline constexpr unsigned kThreads = 4;

struct Workload {
  std::string name;
  Flags warmup;          ///< the small untimed study run during set-up
  std::vector<StudyDef> studies;
};

const char* to_string(Size size);
/// "full" / "tiny"; throws std::invalid_argument otherwise.
Size parse_size(const std::string& text);

/// Every workload, in a fixed order.
std::vector<Workload> all_workloads(Size size);

/// The study's spec with kThreads and `seed` as the campaign master seed.
mbcr::core::StudySpec make_spec(const Flags& flags, std::uint64_t seed);

}  // namespace studybench
