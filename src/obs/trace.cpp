#include "obs/trace.hpp"

#include <chrono>
#include <mutex>
#include <vector>

namespace mbcr::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

struct TraceEvent {
  const char* name;
  std::uint64_t ts_us;
  std::uint64_t dur_us;
  std::uint32_t tid;
};

struct TraceBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  std::atomic<std::uint32_t> next_tid{1};
};

TraceBuffer& buffer() {
  // Leaky singleton for the same reason as the metrics registry: spans in
  // pool threads may outlive any static destruction order.
  static TraceBuffer* instance = new TraceBuffer;
  return *instance;
}

std::uint32_t my_tid() {
  thread_local const std::uint32_t tid =
      buffer().next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

std::chrono::steady_clock::time_point epoch() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return t0;
}

}  // namespace

namespace detail {

std::uint64_t trace_now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch())
          .count());
}

void trace_emit(const char* name, std::uint64_t ts_us,
                std::uint64_t dur_us) noexcept {
  TraceBuffer& buf = buffer();
  const std::uint32_t tid = my_tid();
  std::lock_guard<std::mutex> lock(buf.mutex);
  if (buf.events.size() >= kMaxTraceEvents) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back({name, ts_us, dur_us, tid});
}

}  // namespace detail

void set_trace_enabled(bool on) noexcept {
  if (on) (void)epoch();  // pin the time origin before the first span
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

json::Value trace_json() {
  TraceBuffer& buf = buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);

  json::Array events;
  events.reserve(buf.events.size() + 1);
  {
    // Process-name metadata so Perfetto labels the track.
    json::Object meta;
    meta.emplace_back("name", "process_name");
    meta.emplace_back("ph", "M");
    meta.emplace_back("pid", 1);
    json::Object args;
    args.emplace_back("name", "mbcr");
    meta.emplace_back("args", json::Value(std::move(args)));
    events.emplace_back(std::move(meta));
  }
  for (const TraceEvent& ev : buf.events) {
    json::Object e;
    e.reserve(7);
    e.emplace_back("name", ev.name);
    e.emplace_back("cat", "mbcr");
    e.emplace_back("ph", "X");
    e.emplace_back("ts", ev.ts_us);
    e.emplace_back("dur", ev.dur_us);
    e.emplace_back("pid", 1);
    e.emplace_back("tid", ev.tid);
    events.emplace_back(std::move(e));
  }

  json::Object doc;
  doc.emplace_back("traceEvents", json::Value(std::move(events)));
  doc.emplace_back("displayTimeUnit", "ms");
  if (buf.dropped > 0) {
    doc.emplace_back("mbcrDroppedEvents",
                     static_cast<double>(buf.dropped));
  }
  return json::Value(std::move(doc));
}

void reset_trace() {
  TraceBuffer& buf = buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.clear();
  buf.dropped = 0;
}

}  // namespace mbcr::obs
