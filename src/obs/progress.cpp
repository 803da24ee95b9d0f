#include "obs/progress.hpp"

#include <chrono>
#include <cstdio>
#include <iostream>
#include <mutex>

namespace mbcr::obs {

namespace detail {
std::atomic<bool> g_progress_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::int64_t kMinIntervalNs = 250'000'000;  // ~4 Hz

struct ProgressState {
  std::mutex mutex;
  std::atomic<std::int64_t> last_emit_ns{0};
  std::string phase;                 ///< phase the rate window belongs to
  Clock::time_point phase_start{};   ///< first tick of the current phase
};

ProgressState& state() {
  static ProgressState* instance = new ProgressState;
  return *instance;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string human_rate(double per_sec) {
  char buf[32];
  if (per_sec >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.1fM", per_sec / 1e6);
  } else if (per_sec >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fk", per_sec / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", per_sec);
  }
  return buf;
}

std::string human_seconds(double s) {
  char buf[32];
  if (s >= 120.0) {
    std::snprintf(buf, sizeof buf, "%.0fm%02.0fs", s / 60.0,
                  s - 60.0 * static_cast<double>(static_cast<int>(s / 60.0)));
  } else {
    std::snprintf(buf, sizeof buf, "%.1fs", s);
  }
  return buf;
}

/// Elapsed seconds in `phase`, restarting the window on a phase change.
/// Caller holds the mutex.
double phase_elapsed_locked(ProgressState& st, const char* phase) {
  const Clock::time_point now = Clock::now();
  if (st.phase != phase) {
    st.phase.assign(phase);
    st.phase_start = now;
  }
  return std::chrono::duration<double>(now - st.phase_start).count();
}

}  // namespace

namespace detail {

void progress_tick_impl(const char* phase, std::uint64_t done,
                        std::uint64_t total, const char* unit,
                        const std::string& extra) {
  // Purely rate-limited, even at 100%: phases nest (every convergence
  // delta is its own small campaign), so forcing a final line per
  // completion would flood stderr with hundreds of "100%" ticks. Phases
  // that want a guaranteed closing line call progress_done.
  ProgressState& st = state();
  const std::int64_t now = now_ns();
  std::int64_t last = st.last_emit_ns.load(std::memory_order_relaxed);
  if (now - last < kMinIntervalNs) return;
  if (!st.last_emit_ns.compare_exchange_strong(last, now,
                                               std::memory_order_relaxed)) {
    return;  // another thread just printed
  }

  std::lock_guard<std::mutex> lock(st.mutex);
  const double elapsed = phase_elapsed_locked(st, phase);

  std::string line = std::string("[mbcr] ") + phase + ": ";
  line += std::to_string(done);
  if (total != 0) {
    line += "/" + std::to_string(total);
  }
  line += std::string(" ") + unit;
  if (total != 0) {
    line += " (" + std::to_string(done * 100 / total) + "%)";
  }
  if (elapsed > 1e-3 && done > 0) {
    const double rate = static_cast<double>(done) / elapsed;
    line += " " + human_rate(rate) + " " + unit + "/s";
    if (total != 0 && done < total && rate > 0.0) {
      line += " eta " +
              human_seconds(static_cast<double>(total - done) / rate);
    }
  }
  if (!extra.empty()) line += " | " + extra;
  std::cerr << line << "\n";
}

void progress_done_impl(const char* phase, std::uint64_t done,
                        const char* unit) {
  ProgressState& st = state();
  st.last_emit_ns.store(now_ns(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(st.mutex);
  const double elapsed = phase_elapsed_locked(st, phase);
  std::string line = std::string("[mbcr] ") + phase + ": done, " +
                     std::to_string(done) + " " + unit + " in " +
                     human_seconds(elapsed);
  if (elapsed > 1e-3 && done > 0) {
    line += " (" + human_rate(static_cast<double>(done) / elapsed) + " " +
            unit + "/s)";
  }
  std::cerr << line << "\n";
  st.phase.clear();  // next phase starts a fresh rate window
}

}  // namespace detail

void set_progress_enabled(bool on) noexcept {
  detail::g_progress_enabled.store(on, std::memory_order_relaxed);
}

}  // namespace mbcr::obs
