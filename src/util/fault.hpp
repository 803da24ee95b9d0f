// Deliberate-fault injection: the self-tests of the fuzzer and the sweep
// supervisor.
//
// A build configured with -DMBCR_FAULT_INJECTION=ON compiles in the
// fault hooks, and the environment variable MBCR_FAULT arms one of them:
//
//   MBCR_FAULT=replay          the first DL1 miss of every fast-replay run
//                              forgets its memory-latency penalty (the
//                              fuzzer's replay oracle must catch it)
//   MBCR_FAULT=vm              the bytecode VM's first array-element load
//                              of a run yields value+1 (the vm oracle must
//                              catch it)
//   MBCR_FAULT=crash@2         sweep shard 2 exits 1 before writing, on
//                              every attempt (the quarantine path)
//   MBCR_FAULT=crash@2#0       ... on attempt 0 only (the retry path)
//   MBCR_FAULT=hang@1#0        shard 1 attempt 0 sleeps past any timeout
//                              (the SIGKILL-on-timeout path)
//   MBCR_FAULT=truncate@0#0    shard 0 attempt 0 writes a torn, non-atomic
//                              result file and exits 0 (journal
//                              verification must reject it)
//   MBCR_FAULT=badsum@0#0      ... a well-formed file whose checksum lies
//
// Faults are disarmed unless MBCR_FAULT names one, so the fault build
// passes the regular test suites. Regular builds never read the variable,
// and their replay and VM hooks are not compiled at all.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace mbcr::fault {

/// True iff this binary was built with MBCR_FAULT_INJECTION.
constexpr bool compiled_in() {
#ifdef MBCR_FAULT_INJECTION
  return true;
#else
  return false;
#endif
}

enum class Kind { kNone, kReplay, kVm, kCrash, kHang, kTruncate, kBadsum };

struct Spec {
  Kind kind = Kind::kNone;
  std::uint64_t shard = 0;               ///< sweep kinds only
  std::optional<std::uint64_t> attempt;  ///< unset: every attempt

  /// Does this spec arm a sweep-worker fault for the given attempt of the
  /// given shard?
  bool targets(std::uint64_t s, std::uint64_t a) const;
};

/// Parses `replay`, `vm` or `mode@shard[#attempt]` with mode one of
/// crash|hang|truncate|badsum. Throws std::invalid_argument on anything
/// else — trailing junk, a negative or empty number included: a silently
/// mis-armed fault would make a recovery test pass vacuously.
Spec parse(std::string_view text);

/// The armed fault: MBCR_FAULT parsed on first use in fault builds (unset
/// or empty means kNone; malformed throws std::invalid_argument), always
/// kNone in regular builds unless a test called `set_armed`.
const Spec& armed();

/// Replaces the armed fault. For tests; call it while no other thread can
/// be reading `armed()`.
void set_armed(const Spec& spec);

}  // namespace mbcr::fault
