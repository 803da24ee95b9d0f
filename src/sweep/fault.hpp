// Compile-time-gated fault injection for the sweep's recovery paths —
// the sharded-sweep analogue of MBCR_FUZZ_FAULT / MBCR_VM_FAULT.
//
// A build configured with -DMBCR_SWEEP_FAULT=ON lets the environment
// variable MBCR_SWEEP_FAULT arm one deliberate worker malfunction:
//
//   MBCR_SWEEP_FAULT=crash@2       shard 2 exits 1 before writing (every
//                                  attempt — the quarantine path)
//   MBCR_SWEEP_FAULT=crash@2#0     ... on attempt 0 only (the retry path)
//   MBCR_SWEEP_FAULT=hang@1#0      shard 1 attempt 0 sleeps past any
//                                  timeout (the SIGKILL-on-timeout path)
//   MBCR_SWEEP_FAULT=truncate@0#0  shard 0 attempt 0 writes a torn,
//                                  non-atomic result file and exits 0
//                                  (journal verification must reject it)
//   MBCR_SWEEP_FAULT=badsum@0#0    ... a well-formed file whose checksum
//                                  lies (ditto)
//
// Regular builds compile none of this: `sweep_fault_compiled_in()` is
// constant-false, the env var is ignored, and the hook costs nothing.
#pragma once

#include <cstddef>

namespace mbcr::sweep {

/// True iff this binary was built with MBCR_SWEEP_FAULT.
constexpr bool sweep_fault_compiled_in() {
#ifdef MBCR_SWEEP_FAULT
  return true;
#else
  return false;
#endif
}

enum class FaultMode { kNone, kCrash, kHang, kTruncate, kBadsum };

/// What the environment armed, resolved once per worker process.
struct FaultPlan {
  FaultMode mode = FaultMode::kNone;
  std::size_t shard = 0;
  int attempt = -1;  ///< -1: every attempt of that shard

  /// Does this plan target the given attempt of the given shard?
  bool targets(std::size_t s, int a) const {
    return mode != FaultMode::kNone && shard == s &&
           (attempt < 0 || attempt == a);
  }
};

/// Parses MBCR_SWEEP_FAULT ("mode@shard" or "mode@shard#attempt").
/// Always kNone when the hook is not compiled in; throws
/// std::invalid_argument on a malformed value when it is (a silently
/// ignored typo would make a recovery test pass vacuously).
FaultPlan fault_plan_from_env();

}  // namespace mbcr::sweep
