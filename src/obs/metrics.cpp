#include "obs/metrics.hpp"

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace mbcr::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

namespace {

constexpr std::uint32_t kBlockSlots = 256;

/// One fixed block of slots. Blocks are heap-allocated once and never
/// moved or freed, so a writer's cached pointer and a concurrent
/// snapshot's walk both stay valid across shard growth.
struct SlotBlock {
  std::array<std::atomic<std::uint64_t>, kBlockSlots> slots{};
};

/// One thread's private copy of the slot space. Only the owning thread
/// writes the slots; the registry reads them (and grows the block list on
/// the owner's behalf) under its mutex.
struct Shard {
  std::vector<std::unique_ptr<SlotBlock>> blocks;
  std::uint32_t capacity = 0;  ///< slots available; grown under the mutex
};

/// The process-wide registry. A leaky singleton: shards registered by
/// pool threads must outlive those threads, and metric handles cached in
/// function-local statics must stay valid through static destruction.
struct Registry {
  std::mutex mutex;
  std::uint32_t next_slot = 0;
  // Ordered by name so snapshots are deterministically keyed.
  std::map<std::string, std::uint32_t, std::less<>> counters;
  std::map<std::string, std::uint32_t, std::less<>> histograms;
  std::map<std::string, std::unique_ptr<std::atomic<double>>, std::less<>>
      gauges;
  std::vector<Shard*> shards;  ///< every thread's shard, never freed
};

Registry& registry() {
  static Registry* instance = new Registry;
  return *instance;
}

/// The calling thread's shard, registered on first use. Raw pointer: the
/// registry owns the allocation for the life of the process.
Shard& my_shard() {
  thread_local Shard* shard = [] {
    auto* s = new Shard;
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.shards.push_back(s);
    return s;
  }();
  return *shard;
}

/// Grows `shard` (under the registry mutex) until `slot` is addressable.
/// Covers every currently-registered slot in one go so a burst of new
/// metrics costs one lock, not one per metric.
void grow_shard(Shard& shard, std::uint32_t slot) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  const std::uint32_t want =
      ((slot < reg.next_slot ? reg.next_slot : slot + 1) + kBlockSlots - 1) /
      kBlockSlots;
  while (shard.blocks.size() < want) {
    shard.blocks.push_back(std::make_unique<SlotBlock>());
  }
  shard.capacity = static_cast<std::uint32_t>(shard.blocks.size()) *
                   kBlockSlots;
}

std::uint64_t merged_slot(const Registry& reg, std::uint32_t slot) {
  std::uint64_t total = 0;
  for (const Shard* shard : reg.shards) {
    if (slot >= shard->capacity) continue;
    total += shard->blocks[slot / kBlockSlots]
                 ->slots[slot % kBlockSlots]
                 .load(std::memory_order_relaxed);
  }
  return total;
}

/// Numbers above 2^53 would lose precision as JSON doubles; counters in
/// this codebase (runs, accesses, nanoseconds) stay far below that.
json::Value count_json(std::uint64_t v) {
  return json::Value(static_cast<double>(v));
}

/// Adds `n` to one of the calling thread's own slots. The owner is the
/// slot's only writer, so a relaxed load and store suffice: readers see
/// either value, never a torn one, and no locked read-modify-write is paid.
void bump(std::atomic<std::uint64_t>& slot, std::uint64_t n) noexcept {
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

}  // namespace

namespace detail {

void shard_add(std::uint32_t slot, std::uint64_t n) noexcept {
  Shard& shard = my_shard();
  if (slot >= shard.capacity) grow_shard(shard, slot);
  bump(shard.blocks[slot / kBlockSlots]->slots[slot % kBlockSlots], n);
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

Counter counter(std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto [it, inserted] = reg.counters.try_emplace(std::string(name), 0);
  if (inserted) it->second = reg.next_slot++;
  Counter out;
  out.slot_ = it->second;
  return out;
}

Gauge gauge(std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto [it, inserted] = reg.gauges.try_emplace(std::string(name), nullptr);
  if (inserted) it->second = std::make_unique<std::atomic<double>>(0.0);
  Gauge out;
  out.cell_ = it->second.get();
  return out;
}

Histogram histogram(std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto [it, inserted] = reg.histograms.try_emplace(std::string(name), 0);
  if (inserted) {
    it->second = reg.next_slot;
    reg.next_slot += Histogram::kBuckets + 2;  // buckets + count + sum
  }
  Histogram out;
  out.slot_ = it->second;
  return out;
}

namespace {

json::Object metrics_object() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);

  json::Object counters;
  for (const auto& [name, slot] : reg.counters) {
    counters.emplace_back(name, count_json(merged_slot(reg, slot)));
  }

  json::Object gauges;
  for (const auto& [name, cell] : reg.gauges) {
    gauges.emplace_back(name, cell->load(std::memory_order_relaxed));
  }

  json::Object histograms;
  for (const auto& [name, base] : reg.histograms) {
    json::Object h;
    h.emplace_back("count",
                   count_json(merged_slot(reg, base + Histogram::kBuckets)));
    h.emplace_back(
        "sum", count_json(merged_slot(reg, base + Histogram::kBuckets + 1)));
    json::Object buckets;
    for (std::uint32_t b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = merged_slot(reg, base + b);
      if (n == 0) continue;
      // Key: the bucket's inclusive upper bound (bucket 0 holds zeros,
      // bucket i holds [2^(i-1), 2^i - 1], the last bucket overflows).
      const std::string key =
          b == 0 ? "0"
          : b == Histogram::kBuckets - 1
              ? "inf"
              : std::to_string((std::uint64_t{1} << b) - 1);
      buckets.emplace_back(key, count_json(n));
    }
    h.emplace_back("buckets", json::Value(std::move(buckets)));
    histograms.emplace_back(name, json::Value(std::move(h)));
  }

  json::Object out;
  out.emplace_back("counters", json::Value(std::move(counters)));
  out.emplace_back("gauges", json::Value(std::move(gauges)));
  out.emplace_back("histograms", json::Value(std::move(histograms)));
  return out;
}

}  // namespace

json::Value metrics_json() { return json::Value(metrics_object()); }

json::Value metrics_document() {
  json::Object doc;
  doc.emplace_back("schema", "mbcr-metrics-v1");
  for (auto& [key, value] : metrics_object()) {
    doc.emplace_back(key, std::move(value));
  }
  return json::Value(std::move(doc));
}

CounterSnapshot snapshot_counters() {
  CounterSnapshot out;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  out.values_.reserve(reg.counters.size());
  // reg.counters is ordered by name, so values_ comes out sorted.
  for (const auto& [name, slot] : reg.counters) {
    out.values_.emplace_back(name, merged_slot(reg, slot));
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
CounterSnapshot::delta_since(const CounterSnapshot& base) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  // Merge-walk two name-sorted lists. Names only ever get *added* to the
  // registry, so `base` is normally a prefix-subset of `this` — but the
  // walk is symmetric anyway: a name missing from `base` counts from
  // zero, a name missing from `this` (impossible today) is skipped.
  std::size_t i = 0;
  for (const auto& [name, value] : values_) {
    while (i < base.values_.size() && base.values_[i].first < name) ++i;
    std::uint64_t before = 0;
    if (i < base.values_.size() && base.values_[i].first == name) {
      before = base.values_[i].second;
    }
    if (value > before) out.emplace_back(name, value - before);
  }
  return out;
}

void reset_metrics() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (Shard* shard : reg.shards) {
    for (auto& block : shard->blocks) {
      for (auto& slot : block->slots) {
        slot.store(0, std::memory_order_relaxed);
      }
    }
  }
  for (auto& [name, cell] : reg.gauges) {
    cell->store(0.0, std::memory_order_relaxed);
  }
}

}  // namespace mbcr::obs
