// Observability: live progress reporting.
//
// `--progress` on the mbcr subcommands flips the gate below; instrumented
// phases then emit rate-limited status lines like
//
//   [mbcr] campaign: 128000/200000 runs (64%) 1.6M runs/s eta 0.1s
//   [mbcr] converge: 4300/200000 samples | refit 12, window dev 0.041 vs
//          tol 0.030
//
// All output goes to **stderr**, never stdout: `mbcr analyze --json -
// --progress` must still write exactly one JSON document to stdout
// (tests/obs and the CI smoke pin this). Lines are whole (newline
// terminated) rather than \r-rewritten so logs captured by CI stay
// readable. Rate limiting is a relaxed timestamp check (~4 Hz) so ticks
// from hot loops cost one load when it is not yet time to print.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace mbcr::obs {

namespace detail {
extern std::atomic<bool> g_progress_enabled;
void progress_tick_impl(const char* phase, std::uint64_t done,
                        std::uint64_t total, const char* unit,
                        const std::string& extra);
void progress_done_impl(const char* phase, std::uint64_t done,
                        const char* unit);
}  // namespace detail

inline bool progress_enabled() noexcept {
  return detail::g_progress_enabled.load(std::memory_order_relaxed);
}

/// Flips progress reporting.
void set_progress_enabled(bool on) noexcept;

/// One progress update: `done` of `total` `unit`s in `phase` (total 0 =
/// open-ended, no percentage/ETA). Rate-limited; safe from any thread.
/// Build `extra` only under `progress_enabled()` — it is ignored when off.
inline void progress_tick(const char* phase, std::uint64_t done,
                          std::uint64_t total, const char* unit,
                          const std::string& extra = {}) {
  if (!progress_enabled()) return;
  detail::progress_tick_impl(phase, done, total, unit, extra);
}

/// Final line for a phase (always printed when enabled, with the phase's
/// elapsed time); also resets the per-phase rate bookkeeping.
inline void progress_done(const char* phase, std::uint64_t done,
                          const char* unit) {
  if (!progress_enabled()) return;
  detail::progress_done_impl(phase, done, unit);
}

}  // namespace mbcr::obs
