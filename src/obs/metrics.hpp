// Observability: the process-wide metrics registry.
//
// Counters, gauges and fixed-bucket (power-of-two) histograms, designed so
// the measured pipeline pays nothing it can notice:
//
//   - Runtime gate: collection is off until `set_enabled(true)` (the CLI
//     flips it for --metrics-json / --progress). A disabled update is one
//     relaxed atomic load.
//   - Thread-local shards: an enabled counter update is a relaxed load
//     and store on a slot only the calling thread writes — no shared
//     cache line, no lock, no locked read-modify-write. `metrics_json()`
//     merges every shard under the registry mutex; slot storage is
//     block-based and append-only, so a snapshot never races shard
//     growth.
//
// None of this may perturb results: instrumentation only ever *reads* the
// engine's state, and tests/obs/equivalence_test.cpp proves metrics-on
// runs bit-identical to metrics-off runs across the engine grid.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace mbcr::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
/// Adds `n` to the calling thread's shard slot (registering the shard and
/// growing its block list on first touch of a new slot range).
void shard_add(std::uint32_t slot, std::uint64_t n) noexcept;
}  // namespace detail

/// The runtime collection gate.
inline bool enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Flips the runtime gate.
void set_enabled(bool on) noexcept;

/// A monotonically increasing event count. Copyable, trivially small;
/// obtain via `counter(name)` and cache (function-local static) at the
/// call site.
class Counter {
public:
  void add(std::uint64_t n = 1) const noexcept {
    if (!enabled()) return;
    detail::shard_add(slot_, n);
  }

private:
  friend Counter counter(std::string_view name);
  std::uint32_t slot_ = 0;
};

/// A last-write-wins instantaneous value (queue depth, rates computed at
/// the end of a phase). Global, not sharded — sets are rare.
class Gauge {
public:
  void set(double value) const noexcept {
    if (!enabled() || cell_ == nullptr) return;
    cell_->store(value, std::memory_order_relaxed);
  }

private:
  friend Gauge gauge(std::string_view name);
  std::atomic<double>* cell_ = nullptr;
};

/// A power-of-two-bucket histogram: bucket 0 holds zeros, bucket i >= 1
/// holds values in [2^(i-1), 2^i). Count and sum ride along, so snapshots
/// can report the mean without a separate counter.
class Histogram {
public:
  static constexpr std::uint32_t kBuckets = 32;

  void record(std::uint64_t value) const noexcept {
    if (!enabled()) return;
    const auto width = static_cast<std::uint32_t>(std::bit_width(value));
    const std::uint32_t bucket = width < kBuckets ? width : kBuckets - 1;
    detail::shard_add(slot_ + bucket, 1);
    detail::shard_add(slot_ + kBuckets, 1);      // count
    detail::shard_add(slot_ + kBuckets + 1, value);  // sum
  }

private:
  friend Histogram histogram(std::string_view name);
  std::uint32_t slot_ = 0;
};

/// Registers (or looks up) a metric by name. Registration takes the
/// registry mutex; cache the handle at the call site.
Counter counter(std::string_view name);
Gauge gauge(std::string_view name);
Histogram histogram(std::string_view name);

/// A point-in-time copy of every registered counter (merged across
/// shards), cheap enough to bracket a single fuzz case. The guided
/// fuzzer derives its coverage features from the difference of two
/// snapshots.
class CounterSnapshot {
public:
  /// (name, value) pairs, sorted by name.
  const std::vector<std::pair<std::string, std::uint64_t>>& values() const {
    return values_;
  }

  /// Counters that grew since `base`, with the growth amount. Tolerates
  /// late registration on both sides: a counter (or a whole thread
  /// shard) that appeared after `base` was taken reads as "was zero", so
  /// its full current value is the delta — a fuzz oracle registering its
  /// `fuzz.oracle.<name>.*` pair mid-run, or a pool worker touching its
  /// shard for the first time, never skews or drops entries.
  std::vector<std::pair<std::string, std::uint64_t>> delta_since(
      const CounterSnapshot& base) const;

private:
  friend CounterSnapshot snapshot_counters();
  std::vector<std::pair<std::string, std::uint64_t>> values_;
};

/// Captures every registered counter under the registry mutex.
CounterSnapshot snapshot_counters();

/// A merged snapshot of every shard:
///   {"counters": {...}, "gauges": {...}, "histograms": {name:
///    {"count": n, "sum": s, "buckets": {"<=max": n, ...}}}}
/// Keys are sorted by name; zero-valued buckets are omitted. Safe to call
/// concurrently with updates (relaxed reads; a snapshot is a consistent
/// point-in-time view per slot, not across slots).
json::Value metrics_json();

/// The snapshot wrapped as a standalone document:
///   {"schema": "mbcr-metrics-v1", "counters": ..., ...}
json::Value metrics_document();

/// Zeroes every counter, gauge and histogram slot (registrations remain).
/// Tests use this to isolate scenarios inside one process. Call it only
/// while no other thread updates metrics: an owner's in-flight add could
/// write back its pre-reset value.
void reset_metrics();

}  // namespace mbcr::obs
