// Metrics-registry unit tests: gating, bucket math, snapshot shape, reset
// semantics, and — the property the sharded design exists for — exact
// totals under concurrent updates, registrations, and snapshots.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace mbcr::obs {
namespace {

/// Scoped collection gate: every test leaves the process-wide gate off so
/// suites sharing the binary never observe each other's state.
struct EnabledScope {
  explicit EnabledScope(bool on) { set_enabled(on); }
  ~EnabledScope() {
    set_enabled(false);
    reset_metrics();
  }
};

double counter_value(const json::Value& snapshot, const std::string& name) {
  const json::Value* v = snapshot.at("counters").find(name);
  return v == nullptr ? -1.0 : v->as_number();
}

TEST(Metrics, DisabledUpdatesCollectNothing) {
  EnabledScope scope(false);
  const Counter c = counter("test.disabled_counter");
  c.add(41);
  const Gauge g = gauge("test.disabled_gauge");
  g.set(3.5);
  const Histogram h = histogram("test.disabled_hist");
  h.record(7);

  const json::Value snap = metrics_json();
  EXPECT_EQ(counter_value(snap, "test.disabled_counter"), 0.0);
  EXPECT_EQ(snap.at("gauges").at("test.disabled_gauge").as_number(), 0.0);
  EXPECT_EQ(snap.at("histograms")
                .at("test.disabled_hist")
                .at("count")
                .as_number(),
            0.0);
}

TEST(Metrics, CounterAccumulatesAndHandlesAreStable) {
  EnabledScope scope(true);
  const Counter c1 = counter("test.counter");
  const Counter c2 = counter("test.counter");  // same slot, same metric
  c1.add();
  c1.add(9);
  c2.add(90);
  EXPECT_EQ(counter_value(metrics_json(), "test.counter"), 100.0);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  EnabledScope scope(true);
  const Gauge g = gauge("test.gauge");
  g.set(1.0);
  g.set(2.5);
  EXPECT_EQ(metrics_json().at("gauges").at("test.gauge").as_number(), 2.5);
}

TEST(Metrics, HistogramBucketsArePowersOfTwo) {
  EnabledScope scope(true);
  const Histogram h = histogram("test.hist");
  h.record(0);   // bucket "0"
  h.record(1);   // [1,1] -> key "1"
  h.record(2);   // [2,3] -> key "3"
  h.record(3);   // [2,3] -> key "3"
  h.record(100);  // [64,127] -> key "127"

  const json::Value snap = metrics_json();
  const json::Value& hist = snap.at("histograms").at("test.hist");
  EXPECT_EQ(hist.at("count").as_number(), 5.0);
  EXPECT_EQ(hist.at("sum").as_number(), 106.0);
  EXPECT_EQ(hist.at("buckets").at("0").as_number(), 1.0);
  EXPECT_EQ(hist.at("buckets").at("1").as_number(), 1.0);
  EXPECT_EQ(hist.at("buckets").at("3").as_number(), 2.0);
  EXPECT_EQ(hist.at("buckets").at("127").as_number(), 1.0);
  // Zero buckets are omitted, not emitted as 0.
  EXPECT_EQ(hist.at("buckets").find("7"), nullptr);
}

TEST(Metrics, SnapshotKeysAreSortedByName) {
  EnabledScope scope(true);
  counter("test.z_last").add(1);
  counter("test.a_first").add(1);
  const json::Value snap = metrics_json();
  const json::Object& counters = snap.at("counters").as_object();
  std::string prev;
  for (const auto& [name, value] : counters) {
    EXPECT_LE(prev, name);
    prev = name;
  }
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
  EnabledScope scope(true);
  counter("test.reset_counter").add(5);
  gauge("test.reset_gauge").set(5.0);
  histogram("test.reset_hist").record(5);
  reset_metrics();
  const json::Value snap = metrics_json();
  EXPECT_EQ(counter_value(snap, "test.reset_counter"), 0.0);
  EXPECT_EQ(snap.at("gauges").at("test.reset_gauge").as_number(), 0.0);
  EXPECT_EQ(
      snap.at("histograms").at("test.reset_hist").at("count").as_number(),
      0.0);
}

TEST(Metrics, DocumentCarriesSchemaAndSections) {
  const json::Value doc = metrics_document();
  EXPECT_EQ(doc.at("schema").as_string(), "mbcr-metrics-v1");
  EXPECT_TRUE(doc.at("counters").is_object());
  EXPECT_TRUE(doc.at("gauges").is_object());
  EXPECT_TRUE(doc.at("histograms").is_object());
  // The document is valid, round-trippable JSON.
  EXPECT_EQ(json::parse(doc.dump(2)).dump(2), doc.dump(2));
}

TEST(Metrics, ConcurrentAddsMergeExactly) {
  // The correctness claim of the sharded design: adds from many threads
  // are never lost or double-counted, even while other threads register
  // new metrics (growing shard block lists) and take snapshots.
  EnabledScope scope(true);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 20'000;

  std::atomic<bool> stop_snapshots{false};
  std::thread snapshotter([&] {
    while (!stop_snapshots.load(std::memory_order_relaxed)) {
      const json::Value snap = metrics_json();  // must never crash or race
      ASSERT_TRUE(snap.at("counters").is_object());
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      const Counter shared = counter("test.concurrent.shared");
      const Counter mine =
          counter("test.concurrent.thread" + std::to_string(t));
      const Histogram hist = histogram("test.concurrent.hist");
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        shared.add(1);
        mine.add(2);
        hist.record(i % 8);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop_snapshots.store(true, std::memory_order_relaxed);
  snapshotter.join();

  const json::Value snap = metrics_json();
  EXPECT_EQ(counter_value(snap, "test.concurrent.shared"),
            static_cast<double>(kThreads * kAddsPerThread));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counter_value(snap,
                            "test.concurrent.thread" + std::to_string(t)),
              static_cast<double>(2 * kAddsPerThread));
  }
  const json::Value& hist =
      snap.at("histograms").at("test.concurrent.hist");
  EXPECT_EQ(hist.at("count").as_number(),
            static_cast<double>(kThreads * kAddsPerThread));
}

TEST(Metrics, SnapshotDeltaReportsOnlyGrowth) {
  EnabledScope scope(true);
  counter("test.delta.stable").add(5);
  counter("test.delta.grows").add(2);
  const CounterSnapshot base = snapshot_counters();
  counter("test.delta.grows").add(9);

  const auto delta = snapshot_counters().delta_since(base);
  // Only grown counters appear, name-sorted; the stable one is absent.
  std::uint64_t grows = 0;
  for (const auto& [name, growth] : delta) {
    EXPECT_NE(name, "test.delta.stable");
    if (name == "test.delta.grows") grows = growth;
  }
  EXPECT_EQ(grows, 9u);
  for (std::size_t i = 1; i < delta.size(); ++i) {
    EXPECT_LT(delta[i - 1].first, delta[i].first);
  }
  // A snapshot is a fixed point against itself.
  EXPECT_TRUE(base.delta_since(base).empty());
}

TEST(Metrics, SnapshotDeltaToleratesLateRegistration) {
  // The guided fuzzer's per-case bracket: counters that register AFTER
  // the base snapshot (a per-oracle-name "fuzz.oracle.*" family, a new
  // opcode tally, a shard born on a worker thread mid-run) must count
  // from zero in the delta — not crash, not be dropped.
  EnabledScope scope(true);
  counter("test.delta.preexisting").add(1);
  const CounterSnapshot base = snapshot_counters();

  // Register + bump from a brand-new thread, so both the metric AND its
  // only shard postdate the base snapshot.
  std::thread late([] { counter("test.delta.born_late").add(13); });
  late.join();

  const auto delta = snapshot_counters().delta_since(base);
  std::uint64_t born_late = 0;
  for (const auto& [name, growth] : delta) {
    if (name == "test.delta.born_late") born_late = growth;
  }
  EXPECT_EQ(born_late, 13u);
}

TEST(Metrics, LateRegistrationIsVisibleToEarlyShards) {
  // A thread whose shard predates a metric's registration must still
  // contribute once it writes that slot (shards grow on demand).
  EnabledScope scope(true);
  counter("test.late.warmup").add(1);  // ensure this thread owns a shard
  std::thread other([] {
    counter("test.late.registered_elsewhere").add(7);
  });
  other.join();
  counter("test.late.registered_elsewhere").add(3);
  EXPECT_EQ(counter_value(metrics_json(), "test.late.registered_elsewhere"),
            10.0);
}

}  // namespace
}  // namespace mbcr::obs
