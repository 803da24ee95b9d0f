// Micro-benchmarks: throughput of the simulator hot paths. These bound
// the wall-clock cost of the measurement campaigns the method needs
// (hundreds of thousands of runs per benchmark).
//
// Two modes:
//  * default — the google-benchmark suites (available only when the
//    binary was built with google-benchmark; all --benchmark_* flags work)
//  * `--json FILE` — the replay-throughput report: runs/sec of
//    `Machine::run_once` per kernel and hierarchy flavor, with each
//    trace's full access count and folded replay entries, timed with plain
//    std::chrono (no google-benchmark needed) and written as JSON. This is
//    the `BENCH_replay.json` CI artifact that tracks the perf trajectory.
//    `--replay-runs N` caps the runs per timed case (CI smoke). The same
//    report times TAC's group impacts (`tac::group_extra_misses`, one
//    thread) over every candidate of three pubbed data sides and one
//    instruction side.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "ir/interp.hpp"
#include "obs/metrics.hpp"
#include "platform/campaign.hpp"
#include "platform/machine.hpp"
#include "pub/pub_transform.hpp"
#include "suite/malardalen.hpp"
#include "tac/conflict.hpp"
#include "tac/impact.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#ifdef MBCR_HAVE_GOOGLE_BENCHMARK
#include <benchmark/benchmark.h>

#include "cache/random_cache.hpp"
#include "tac/runs.hpp"
#endif

namespace {

using namespace mbcr;

MemTrace kernel_mem_trace(const std::string& name) {
  const auto b = suite::make_benchmark(name);
  return ir::lower_and_execute(b.program, b.default_input).trace;
}

CompactTrace kernel_trace(const std::string& name) {
  return CompactTrace::from(kernel_mem_trace(name));
}

// ---------------------------------------------------------------------------
// Replay-throughput report (--json): run_once per kernel and hierarchy
// flavor. Timed with steady_clock so the mode works in builds without
// google-benchmark; each case first pins run_once == run_once_reference
// bit-for-bit on its exact configuration.

struct ReplayFlavor {
  const char* name;
  platform::MachineConfig config;
};

std::vector<ReplayFlavor> replay_flavors() {
  platform::MachineConfig l1_only;
  platform::MachineConfig l2_random;
  l2_random.l2 = HierarchyConfig::shared_l2_random();
  platform::MachineConfig l2_lru;
  l2_lru.l2 = HierarchyConfig::shared_l2_lru();
  return {{"l1_only", l1_only},
          {"l2_random", l2_random},
          {"l2_lru", l2_lru}};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ReplayCase {
  std::string kernel;
  std::string flavor;
  std::size_t trace_accesses = 0;  ///< full trace
  std::size_t entries = 0;         ///< replayed after folding
  double run_once_rps = 0;
};

ReplayCase time_replay_case(const std::string& kernel,
                            const ReplayFlavor& flavor, const MemTrace& mem,
                            const CompactTrace& trace, std::size_t runs) {
  const platform::Machine machine(flavor.config);
  platform::RunWorkspace ws;
  constexpr std::uint64_t kMasterSeed = 42;

  // Bit-identity guard before timing: the folded fast replay against the
  // generic-cache reference on the full trace, over the head of the timed
  // seed sequence.
  for (std::size_t i = 0; i < std::min<std::size_t>(runs, 8); ++i) {
    const std::uint64_t seed = mix64(i, kMasterSeed);
    if (machine.run_once(trace, seed, ws) !=
        machine.run_once_reference(mem, seed)) {
      std::fprintf(stderr, "run_once mismatch: kernel %s flavor %s run %zu\n",
                   kernel.c_str(), flavor.name, i);
      std::abort();
    }
  }

  ReplayCase out;
  out.kernel = kernel;
  out.flavor = flavor.name;
  out.trace_accesses = trace.accesses;
  out.entries = trace.size();

  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < runs; ++i) {
    sink ^= machine.run_once(trace, mix64(i, kMasterSeed), ws);
  }
  out.run_once_rps = static_cast<double>(runs) / seconds_since(start);
  if (sink == 0xdeadbeef) std::fprintf(stderr, "...");  // keep `sink` live
  return out;
}

// ---------------------------------------------------------------------------
// TAC impact throughput: group_extra_misses over every candidate group
// `enumerate_conflict_groups` estimates on one side, on the calling thread.

/// Appends the candidate groups of size `remaining` + picks, in the
/// enumerator's walk: every cluster multiset over the first `n_clusters`
/// clusters, represented by each cluster's first m lines, kept when their
/// accesses reach `min_accesses`.
void walk_candidates(const tac::ReuseProfile& profile, std::size_t n_clusters,
                     std::size_t cluster, std::size_t remaining,
                     std::uint64_t accesses, double min_accesses,
                     std::vector<std::size_t>& picks,
                     std::vector<std::vector<std::size_t>>& out) {
  if (remaining == 0) {
    if (static_cast<double>(accesses) >= min_accesses) out.push_back(picks);
    return;
  }
  if (cluster >= n_clusters) return;
  const tac::AccessCluster& cl = profile.clusters[cluster];
  const std::size_t cap = std::min(remaining, cl.size());
  walk_candidates(profile, n_clusters, cluster + 1, remaining, accesses,
                  min_accesses, picks, out);
  for (std::size_t m = 1; m <= cap; ++m) {
    const std::size_t idx = cl.line_indices[m - 1];
    picks.push_back(idx);
    accesses += profile.lines[idx].count;
    walk_candidates(profile, n_clusters, cluster + 1, remaining - m, accesses,
                    min_accesses, picks, out);
  }
  picks.resize(picks.size() - cap);
}

struct TacImpactCase {
  std::size_t candidates = 0;
  std::size_t positive = 0;
  double impacts_per_sec = 0;
};

TacImpactCase time_tac_impact_case(const std::string& kernel,
                                   bool instruction_side, std::uint32_t sets,
                                   std::uint32_t ways) {
  const auto b = suite::make_benchmark(kernel);
  const MemTrace mem =
      ir::lower_and_execute(pub::apply_pub(b.program), b.default_input).trace;
  const tac::ReuseProfile profile =
      tac::profile_sequence(mem.line_sequence(instruction_side));
  CacheConfig cache = CacheConfig::paper_l1();
  cache.sets = sets;
  cache.ways = ways;
  const tac::ConflictConfig cfg;
  TacImpactCase out;

  // The candidates and their per-size seeds, as the enumerator has them.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::uint64_t> seeds;
  const std::size_t n_clusters =
      std::min(cfg.max_clusters, profile.clusters.size());
  std::size_t available = 0;
  for (std::size_t c = 0; c < n_clusters; ++c) {
    available += profile.clusters[c].size();
  }
  for (const std::size_t extra : cfg.extra_group_sizes) {
    const std::size_t k = ways + 1 + extra;
    if (available < k) continue;
    std::vector<std::size_t> picks;
    walk_candidates(profile, n_clusters, 0, k, 0,
                    cfg.min_access_share *
                        static_cast<double>(profile.sequence_length),
                    picks, groups);
    seeds.resize(groups.size(), mix64(k, cfg.seed));
  }
  out.candidates = groups.size();

  // Guards before timing: the kernel equals the full projection replay on
  // the first candidates, and this walk's positive impacts are exactly
  // the groups the enumerator keeps.
  for (std::size_t i = 0; i < std::min<std::size_t>(groups.size(), 64); ++i) {
    const double ref =
        std::max(0.0, tac::expected_misses_single_set(
                          tac::project_group(profile, groups[i]), ways,
                          seeds[i], cfg.impact_trials) -
                          static_cast<double>(groups[i].size()));
    if (tac::group_extra_misses(profile, groups[i], ways, seeds[i],
                                cfg.impact_trials) != ref) {
      std::fprintf(stderr, "group_extra_misses mismatch: kernel %s group %zu\n",
                   kernel.c_str(), i);
      std::abort();
    }
  }
  std::vector<double> expected;
  for (const tac::ConflictGroup& g :
       tac::enumerate_conflict_groups(profile, cache, cfg, 1)) {
    expected.push_back(g.extra_misses);
  }

  // Whole passes over the candidates until 0.1 s has gone by, so a side
  // with few candidates is not timed from a few milliseconds.
  std::vector<double> positive;
  std::size_t passes = 0;
  const auto start = std::chrono::steady_clock::now();
  do {
    positive.clear();
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const double extra = tac::group_extra_misses(
          profile, groups[i], ways, seeds[i], cfg.impact_trials);
      if (extra > 0.0) positive.push_back(extra);
    }
    ++passes;
  } while (seconds_since(start) < 0.1);
  out.impacts_per_sec = static_cast<double>(groups.size() * passes) /
                        seconds_since(start);
  std::sort(expected.begin(), expected.end());
  std::sort(positive.begin(), positive.end());
  if (positive != expected) {
    std::fprintf(stderr, "candidate walk differs from the enumerator: %s\n",
                 kernel.c_str());
    std::abort();
  }
  out.positive = positive.size();
  return out;
}

int run_replay_report(const std::string& json_path, std::size_t runs) {
  const std::vector<std::string> kernels = {"bs", "crc", "matmult"};
  json::Array cases;
  std::printf("%-8s %-10s %10s %10s %14s\n", "kernel", "flavor", "accesses",
              "entries", "run_once r/s");
  for (const std::string& kernel : kernels) {
    const MemTrace mem = kernel_mem_trace(kernel);
    const CompactTrace trace = CompactTrace::from(mem);
    for (const ReplayFlavor& flavor : replay_flavors()) {
      const ReplayCase c = time_replay_case(kernel, flavor, mem, trace, runs);
      std::printf("%-8s %-10s %10zu %10zu %14.0f\n", c.kernel.c_str(),
                  c.flavor.c_str(), c.trace_accesses, c.entries,
                  c.run_once_rps);
      json::Object o;
      o.emplace_back("kernel", c.kernel);
      o.emplace_back("flavor", c.flavor);
      o.emplace_back("trace_accesses", c.trace_accesses);
      o.emplace_back("entries", c.entries);
      o.emplace_back("run_once_runs_per_sec", c.run_once_rps);
      cases.emplace_back(std::move(o));
    }
  }
  // Observability-overhead check: the crc run_once hot path timed with
  // metrics collection off vs on (same seeds, same workspace). The CI perf
  // gate pins on_over_off >= 0.98 (< 2% collection overhead), so the
  // measurement must be steadier than the gate. A shared runner's speed
  // drifts by more than 2% from one window to the next, so the modes are
  // timed in adjacent window pairs, the pair's order alternating, and the
  // report is the median of the pairs' on/off ratios: a slow spell that
  // spans a pair slows both its windows, and one that splits a pair makes
  // an outlier the median drops. Windows are floored at 200k runs (~150ms
  // each on crc) regardless of --replay-runs.
  json::Object obs_overhead;
  {
    const CompactTrace trace = kernel_trace("crc");
    const platform::Machine machine;
    platform::RunWorkspace ws;
    const std::size_t window = std::max<std::size_t>(runs, 200'000);
    std::uint64_t sink = 0;
    const auto time_runs = [&](bool on) {
      obs::set_enabled(on);
      for (std::size_t i = 0; i < window / 10 + 1; ++i) {  // warm-up
        sink ^= machine.run_once(trace, mix64(i, 7), ws);
      }
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < window; ++i) {
        sink ^= machine.run_once(trace, mix64(i, 7), ws);
      }
      return static_cast<double>(window) / seconds_since(start);
    };
    constexpr int kPairs = 11;
    std::vector<double> off, on, ratio;
    for (int pair = 0; pair < kPairs; ++pair) {
      const bool on_first = pair % 2 == 1;
      const double first = time_runs(on_first);
      const double second = time_runs(!on_first);
      off.push_back(on_first ? second : first);
      on.push_back(on_first ? first : second);
      ratio.push_back(on.back() / off.back());
    }
    obs::set_enabled(false);
    if (sink == 0xdeadbeef) std::fprintf(stderr, "...");  // keep sink live
    const auto median = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    const double off_rps = median(off);
    const double on_rps = median(on);
    const double on_over_off = median(ratio);
    std::printf("obs overhead (crc run_once): off %.0f r/s, on %.0f r/s, "
                "median pair ratio %.3f\n",
                off_rps, on_rps, on_over_off);
    obs_overhead.emplace_back("kernel", "crc");
    obs_overhead.emplace_back("compiled_in", true);
    obs_overhead.emplace_back("metrics_off_runs_per_sec", off_rps);
    obs_overhead.emplace_back("metrics_on_runs_per_sec", on_rps);
    obs_overhead.emplace_back("on_over_off", on_over_off);
  }

  // TAC impact throughput on four pubbed sides: edn's DL1 at 32x4
  // (replay-heavy), matmult's DL1 at the paper's 64x2 (the Table-2 shape),
  // ns's DL1 at 32x4 (every candidate takes the disjoint-interval exit) and
  // crc's IL1 at 64x2 (an instruction side whose misses are dense).
  json::Array tac_impact;
  std::printf("%-8s %-4s %-6s %10s %10s %14s\n", "kernel", "side", "geom",
              "candidates", "positive", "impacts/s");
  for (const auto& [kernel, instr, sets, ways] :
       {std::tuple{"edn", false, 32u, 4u},
        std::tuple{"matmult", false, 64u, 2u},
        std::tuple{"ns", false, 32u, 4u}, std::tuple{"crc", true, 64u, 2u}}) {
    const TacImpactCase c = time_tac_impact_case(kernel, instr, sets, ways);
    const char* const side = instr ? "il1" : "dl1";
    std::printf("%-8s %-4s %2ux%-3u %10zu %10zu %14.0f\n", kernel, side, sets,
                ways, c.candidates, c.positive, c.impacts_per_sec);
    json::Object o;
    o.emplace_back("kernel", kernel);
    o.emplace_back("side", side);
    o.emplace_back("pubbed", true);
    o.emplace_back("sets", sets);
    o.emplace_back("ways", ways);
    o.emplace_back("candidates", c.candidates);
    o.emplace_back("positive", c.positive);
    o.emplace_back("group_impacts_per_sec", c.impacts_per_sec);
    tac_impact.emplace_back(std::move(o));
  }

  json::Object doc;
  doc.emplace_back("schema", "mbcr-bench-replay-v3");
  doc.emplace_back("runs_per_case", runs);
  doc.emplace_back("cases", std::move(cases));
  doc.emplace_back("obs_overhead", json::Value(std::move(obs_overhead)));
  doc.emplace_back("tac_impact", std::move(tac_impact));

  try {
    util::write_file_atomic(json_path,
                            json::Value(std::move(doc)).dump(2) + "\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("[replay report written to %s]\n", json_path.c_str());
  return 0;
}

#ifdef MBCR_HAVE_GOOGLE_BENCHMARK

void BM_RandomCacheAccess(benchmark::State& state) {
  RandomCache cache(CacheConfig::paper_l1(), 1, 2);
  Addr line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access_line(line));
    line = (line + 7) & 127;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomCacheAccess);

void BM_MachineRunOnce(benchmark::State& state) {
  const auto b = suite::make_benchmark(
      state.range(0) == 0 ? "bs" : state.range(0) == 1 ? "crc" : "matmult");
  const auto trace = CompactTrace::from(
      ir::lower_and_execute(b.program, b.default_input).trace);
  const platform::Machine machine;
  platform::RunWorkspace ws;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.run_once(trace, ++seed, ws));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.accesses));
  state.SetLabel(b.name + " (" + std::to_string(trace.accesses) +
                 " accesses, " + std::to_string(trace.size()) + " replayed)");
}
BENCHMARK(BM_MachineRunOnce)->Arg(0)->Arg(1)->Arg(2);

// Hot-path overhead of the two-level hierarchy, tracked from day one:
// the same trace replayed L1-only (arg 0), with a random L2 (arg 1) and
// with a deterministic LRU L2 (arg 2). items/sec == accesses/sec, so the
// L2 rows directly show the per-access cost of the second level.
void BM_MachineRunOnceHierarchy(benchmark::State& state) {
  const auto trace = kernel_trace("crc");
  platform::MachineConfig cfg;
  if (state.range(0) == 1) cfg.l2 = HierarchyConfig::shared_l2_random();
  if (state.range(0) == 2) cfg.l2 = HierarchyConfig::shared_l2_lru();
  const platform::Machine machine(cfg);
  platform::RunWorkspace ws;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.run_once(trace, ++seed, ws));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.accesses));
  state.SetLabel(state.range(0) == 0   ? "L1 only"
                 : state.range(0) == 1 ? "L1+L2 random"
                                       : "L1+L2 lru");
}
BENCHMARK(BM_MachineRunOnceHierarchy)->Arg(0)->Arg(1)->Arg(2);

void BM_ParallelCampaign(benchmark::State& state) {
  const auto trace = kernel_trace("ns");
  const platform::Machine machine;
  const auto runs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(platform::run_campaign(machine, trace, runs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(runs * trace.accesses));
}
BENCHMARK(BM_ParallelCampaign)->Arg(1000)->Arg(10000);

void BM_InterpreterTrace(benchmark::State& state) {
  const auto b = suite::make_benchmark("crc");
  const ir::Linked linked = ir::lower(b.program);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ir::execute(b.program, linked, b.default_input));
  }
}
BENCHMARK(BM_InterpreterTrace);

void BM_PubTransform(benchmark::State& state) {
  const auto b = suite::make_benchmark("bs");
  for (auto _ : state) {
    benchmark::DoNotOptimize(pub::apply_pub(b.program));
  }
}
BENCHMARK(BM_PubTransform);

void BM_TacAnalysis(benchmark::State& state) {
  const auto b = suite::make_benchmark("cnt");
  const auto exec = ir::lower_and_execute(b.program, b.default_input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tac::analyze_trace(exec.trace, CacheConfig::paper_l1(),
                           CacheConfig::paper_l1(), 10000.0, 100.0));
  }
}
BENCHMARK(BM_TacAnalysis);

#endif  // MBCR_HAVE_GOOGLE_BENCHMARK

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t replay_runs = 4000;

  // Strip the replay-report flags; everything else flows through to
  // google-benchmark (when built in).
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const auto take_value = [&](const char* flag, std::string& out) {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        out = argv[++i];
        return true;
      }
      return false;
    };
    const auto take_count = [&](const char* flag, std::size_t& out) {
      std::string value;
      if (!take_value(flag, value)) return false;
      try {
        out = static_cast<std::size_t>(mbcr::parse_u64(flag + 2, value));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
      }
      return true;
    };
    if (take_value("--json", json_path)) continue;
    if (take_count("--replay-runs", replay_runs)) continue;
    passthrough.push_back(argv[i]);
  }

  if (!json_path.empty()) {
    if (replay_runs == 0) {
      std::fprintf(stderr, "--replay-runs must be positive\n");
      return 2;
    }
    return run_replay_report(json_path, replay_runs);
  }

#ifdef MBCR_HAVE_GOOGLE_BENCHMARK
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "micro_throughput was built without google-benchmark; only "
               "the chrono report is available: --json FILE "
               "[--replay-runs N]\n");
  return 2;
#endif
}
