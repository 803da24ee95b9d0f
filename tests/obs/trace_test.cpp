// Phase-tracing unit tests: span gating, the Chrome trace_event document
// shape Perfetto expects, the event cap, and thread-id assignment.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "util/json.hpp"

namespace mbcr::obs {
namespace {

struct TraceScope {
  explicit TraceScope(bool on) {
    reset_trace();
    set_trace_enabled(on);
  }
  ~TraceScope() {
    set_trace_enabled(false);
    reset_trace();
  }
};

/// Events named `name` in a trace_json document (skips metadata events).
int count_events(const json::Value& doc, const std::string& name) {
  int n = 0;
  for (const json::Value& ev : doc.at("traceEvents").as_array()) {
    const json::Value* ph = ev.find("ph");
    if (ph != nullptr && ph->as_string() == "X" &&
        ev.at("name").as_string() == name) {
      ++n;
    }
  }
  return n;
}

TEST(Trace, DisabledSpansEmitNothing) {
  TraceScope scope(false);
  { Span span("test_phase"); }
  EXPECT_EQ(count_events(trace_json(), "test_phase"), 0);
}

TEST(Trace, SpanEmitsOneCompleteEventPerScope) {
  TraceScope scope(true);
  { Span span("test_outer"); Span inner("test_inner"); }
  { Span span("test_outer"); }
  const json::Value doc = trace_json();
  EXPECT_EQ(count_events(doc, "test_outer"), 2);
  EXPECT_EQ(count_events(doc, "test_inner"), 1);
}

TEST(Trace, DocumentHasThePerfettoShape) {
  TraceScope scope(true);
  { Span span("test_shape"); }
  const json::Value doc = trace_json();

  // Top level: the object form with displayTimeUnit.
  EXPECT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");

  const json::Array& events = doc.at("traceEvents").as_array();
  ASSERT_GE(events.size(), 2u);
  // First event: process-name metadata so the track is labeled.
  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  EXPECT_EQ(events[0].at("name").as_string(), "process_name");
  EXPECT_EQ(events[0].at("args").at("name").as_string(), "mbcr");

  // The span: a complete event with the required keys.
  const json::Value& span_ev = events[1];
  EXPECT_EQ(span_ev.at("name").as_string(), "test_shape");
  EXPECT_EQ(span_ev.at("cat").as_string(), "mbcr");
  EXPECT_EQ(span_ev.at("ph").as_string(), "X");
  EXPECT_TRUE(span_ev.at("ts").is_number());
  EXPECT_TRUE(span_ev.at("dur").is_number());
  EXPECT_TRUE(span_ev.at("pid").is_number());
  EXPECT_GE(span_ev.at("tid").as_number(), 1.0);

  // And it serializes to parseable JSON (what --trace-json writes).
  EXPECT_EQ(json::parse(doc.dump(2)).dump(2), doc.dump(2));
}

TEST(Trace, SpansFromDifferentThreadsGetDistinctTids) {
  TraceScope scope(true);
  { Span span("test_tid"); }
  std::thread other([] { Span span("test_tid"); });
  other.join();
  const json::Value doc = trace_json();
  double tid_a = -1.0;
  double tid_b = -1.0;
  for (const json::Value& ev : doc.at("traceEvents").as_array()) {
    if (ev.find("ph") == nullptr || ev.at("ph").as_string() != "X") continue;
    if (ev.at("name").as_string() != "test_tid") continue;
    (tid_a < 0 ? tid_a : tid_b) = ev.at("tid").as_number();
  }
  EXPECT_GE(tid_a, 1.0);
  EXPECT_GE(tid_b, 1.0);
  EXPECT_NE(tid_a, tid_b);
}

TEST(Trace, BufferCapDropsInsteadOfGrowing) {
  TraceScope scope(true);
  for (std::size_t i = 0; i < kMaxTraceEvents + 100; ++i) {
    detail::trace_emit("test_cap", 0, 0);
  }
  const json::Value doc = trace_json();
  EXPECT_EQ(doc.at("traceEvents").as_array().size(), kMaxTraceEvents + 1);
  EXPECT_EQ(doc.at("mbcrDroppedEvents").as_number(), 100.0);
  reset_trace();
  EXPECT_EQ(trace_json().find("mbcrDroppedEvents"), nullptr);
}

}  // namespace
}  // namespace mbcr::obs
