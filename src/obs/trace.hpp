// Observability: span-based phase tracing.
//
// A `Span` brackets one pipeline phase (lower, compile, verify, execute,
// probe, campaign, converge, refit, evt_fit, tac, ...) and records a
// Chrome `trace_event` complete event ("ph": "X") when it ends. The
// collected trace serializes as the JSON object format
//   {"traceEvents": [{"name", "cat", "ph", "ts", "dur", "pid", "tid"}]}
// which chrome://tracing and https://ui.perfetto.dev load directly.
//
// Gating mirrors the metrics registry: nothing is collected until
// `set_trace_enabled(true)` (one relaxed load per Span otherwise).
// Timestamps come from steady_clock relative to the first enable, in
// microseconds; thread ids are small dense integers assigned per thread.
// The event buffer is capped (kMaxTraceEvents) — a trace that overflows
// drops further events and reports the count, it never grows unbounded.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/json.hpp"

namespace mbcr::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
/// Monotonic microseconds since the trace epoch.
std::uint64_t trace_now_us() noexcept;
/// Appends one complete event (capped; overflow counts as dropped).
void trace_emit(const char* name, std::uint64_t ts_us,
                std::uint64_t dur_us) noexcept;
}  // namespace detail

inline constexpr std::size_t kMaxTraceEvents = 1u << 18;

inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Flips trace collection.
void set_trace_enabled(bool on) noexcept;

/// RAII phase marker. `name` must be a string literal (or otherwise
/// outlive the trace) — spans store the pointer, not a copy, so an
/// enabled span costs two clock reads and one buffered append.
class Span {
public:
  explicit Span(const char* name) noexcept {
    if (trace_enabled()) {
      name_ = name;
      start_us_ = detail::trace_now_us();
    }
  }

  ~Span() {
    if (name_ != nullptr) {
      const std::uint64_t now = detail::trace_now_us();
      detail::trace_emit(name_, start_us_, now - start_us_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  const char* name_ = nullptr;
  std::uint64_t start_us_ = 0;
};

/// The collected trace as a Chrome trace_event JSON document. Includes a
/// process-name metadata event and, when the cap was hit, the number of
/// dropped events under "mbcrDroppedEvents".
json::Value trace_json();

/// Drops every collected event (the enable gate is untouched).
void reset_trace();

}  // namespace mbcr::obs
