// The observability layer's hard contract: collection must never change a
// result. Instrumentation only reads engine state, so a metrics-on run is
// bit-identical to a metrics-off run — samples, tokens, estimates, study
// JSON. These tests pin that over the engine grid (single-level,
// random-L2, LRU-L2 x hash/modulo placement), the VM's opcode tallies,
// the convergence driver, and the full Study API.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "ir/interp.hpp"
#include "mbpta/convergence.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/campaign.hpp"
#include "platform/machine.hpp"
#include "suite/malardalen.hpp"
#include "util/json.hpp"

namespace mbcr::obs {
namespace {

/// Arms metrics + tracing for one scope (progress stays off: it writes
/// stderr, which is irrelevant to result equivalence and noisy in tests).
struct FullObsScope {
  FullObsScope() {
    reset_metrics();
    reset_trace();
    set_enabled(true);
    set_trace_enabled(true);
  }
  ~FullObsScope() {
    set_enabled(false);
    set_trace_enabled(false);
    reset_metrics();
    reset_trace();
  }
};

/// The machine-config grid the engine-equivalence suite covers; collection
/// hooks sit on every one of these replay paths.
std::vector<std::pair<std::string, platform::MachineConfig>> machine_grid() {
  std::vector<std::pair<std::string, platform::MachineConfig>> grid;
  for (const Placement placement : {Placement::kHash, Placement::kModulo}) {
    const std::string suffix =
        placement == Placement::kHash ? "/hash" : "/modulo";
    {
      platform::MachineConfig cfg;
      cfg.il1.placement = placement;
      cfg.dl1.placement = placement;
      grid.emplace_back("single_level" + suffix, cfg);
    }
    {
      platform::MachineConfig cfg;
      cfg.il1.placement = placement;
      cfg.dl1.placement = placement;
      cfg.l2.enabled = true;
      cfg.l2.policy = L2Policy::kRandom;
      cfg.l2.l2.placement = placement;
      grid.emplace_back("l2_random" + suffix, cfg);
    }
    {
      platform::MachineConfig cfg;
      cfg.il1.placement = placement;
      cfg.dl1.placement = placement;
      cfg.l2.enabled = true;
      cfg.l2.policy = L2Policy::kLru;
      grid.emplace_back("l2_lru" + suffix, cfg);
    }
  }
  return grid;
}

CompactTrace kernel_trace(const std::string& name) {
  const auto b = suite::make_benchmark(name);
  return CompactTrace::from(
      ir::lower_and_execute(b.program, b.default_input).trace);
}

TEST(ObsEquivalence, CampaignSamplesAreBitIdenticalAcrossTheEngineGrid) {
  const CompactTrace trace = kernel_trace("bs");
  constexpr std::size_t kRuns = 600;
  for (const auto& [label, cfg] : machine_grid()) {
    const platform::Machine machine(cfg);
    const std::vector<double> off =
        platform::run_campaign(machine, trace, kRuns);
    std::vector<double> on;
    {
      FullObsScope obs_on;
      on = platform::run_campaign(machine, trace, kRuns);
    }
    EXPECT_EQ(off, on) << label;
  }
}

TEST(ObsEquivalence, RunOnceReplayUnaffectedByCollection) {
  // run_once flushes its replay counters once per run; that may not
  // perturb a single cycle count, workspace overload or not.
  const CompactTrace trace = kernel_trace("crc");
  for (const auto& [label, cfg] : machine_grid()) {
    const platform::Machine machine(cfg);
    platform::RunWorkspace ws;
    const std::vector<std::uint64_t> seeds = {3, 14, 159, 2653};
    std::vector<std::uint64_t> off;
    for (const std::uint64_t seed : seeds) {
      off.push_back(machine.run_once(trace, seed, ws));
      off.push_back(machine.run_once(trace, seed));
    }

    FullObsScope obs_on;
    std::vector<std::uint64_t> on;
    for (const std::uint64_t seed : seeds) {
      on.push_back(machine.run_once(trace, seed, ws));
      on.push_back(machine.run_once(trace, seed));
    }
    EXPECT_EQ(off, on) << label;
  }
}

TEST(ObsEquivalence, VmExecutionsAreIdenticalWithTalliesFlushed) {
  // obs-on makes the VM flush its per-opcode dispatch counts after each
  // run; trace, tokens, path, and leaf steps must not move.
  for (const suite::SuiteEntry& entry : suite::all()) {
    const suite::SuiteBenchmark bench = entry.make();
    const ir::ExecResult off =
        ir::lower_and_execute(bench.program, bench.default_input);
    ir::ExecResult on;
    {
      FullObsScope obs_on;
      on = ir::lower_and_execute(bench.program, bench.default_input);
    }
    EXPECT_EQ(off.trace.accesses, on.trace.accesses) << entry.name;
    EXPECT_EQ(off.tokens, on.tokens) << entry.name;
    EXPECT_EQ(off.path, on.path) << entry.name;
    EXPECT_EQ(off.leaf_steps, on.leaf_steps) << entry.name;
  }
}

/// The vm.op.* counters of the current snapshot, by name.
std::map<std::string, double> vm_op_counters() {
  std::map<std::string, double> ops;
  const json::Value snap = metrics_json();
  for (const auto& [name, value] : snap.at("counters").as_object()) {
    if (name.rfind("vm.op.", 0) == 0) ops[name] = value.as_number();
  }
  return ops;
}

TEST(ObsEquivalence, VmOpcodeTalliesActuallyCount) {
  // The flip side of the equivalence proof: with collection on, the VM
  // does report dispatches (otherwise the previous test would pass
  // vacuously with dead instrumentation), and exactly. It always counts
  // but flushes only when collection was on as the run started, so two
  // armed runs give twice one run's counts and a disarmed run between
  // them adds nothing.
  const suite::SuiteBenchmark bench = suite::make_benchmark("bs");
  FullObsScope obs_on;
  const std::uint64_t steps =
      ir::lower_and_execute(bench.program, bench.default_input).leaf_steps;
  const std::map<std::string, double> once = vm_op_counters();
  ASSERT_EQ(once.count("vm.op.kStepFetch"), 1u)
      << "no vm.op.* dispatch counters collected";
  // Every leaf step is one kStepFetch dispatch: an independent count.
  EXPECT_EQ(once.at("vm.op.kStepFetch"), static_cast<double>(steps));

  set_enabled(false);
  (void)ir::lower_and_execute(bench.program, bench.default_input);
  EXPECT_EQ(vm_op_counters(), once) << "a disarmed run flushed its tally";
  set_enabled(true);

  (void)ir::lower_and_execute(bench.program, bench.default_input);
  const std::map<std::string, double> twice = vm_op_counters();
  ASSERT_EQ(twice.size(), once.size());
  for (const auto& [name, count] : once) {
    EXPECT_EQ(twice.at(name), 2 * count) << name;
  }
}

TEST(ObsEquivalence, ConvergenceEstimatesAreBitIdentical) {
  const CompactTrace trace = kernel_trace("bs");
  const platform::Machine machine;
  mbpta::ConvergenceConfig conv;
  conv.max_runs = 4000;

  const auto converge_now = [&] {
    platform::CampaignSampler sampler(machine, trace);
    return mbpta::converge_stream(
        [&sampler](std::vector<double>& sample, std::size_t k) {
          sampler.append_to(sample, k);
        },
        conv);
  };
  const mbpta::ConvergenceResult off = converge_now();
  mbpta::ConvergenceResult on;
  {
    FullObsScope obs_on;
    on = converge_now();
  }
  EXPECT_EQ(off.runs, on.runs);
  EXPECT_EQ(off.converged, on.converged);
  EXPECT_EQ(off.estimates, on.estimates);
  EXPECT_EQ(off.sample, on.sample);
}

/// Drops the observability-only members from a parsed study document.
json::Value strip_obs_members(const json::Value& doc) {
  json::Object out;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "accounting" || key == "metrics") continue;
    out.emplace_back(key, value);
  }
  return json::Value(std::move(out));
}

TEST(ObsEquivalence, StudyJsonIsByteIdenticalModuloTheAdditiveBlocks) {
  core::StudySpec spec;
  spec.suite = "bs";
  spec.mode = core::StudyMode::kPubTac;
  spec.config.convergence.max_runs = 2000;
  spec.config.tac.max_runs_cap = 2000;
  spec.curve_max_exp = 12;

  std::ostringstream off_ss;
  core::run_study(spec).write_json(off_ss);

  std::ostringstream on_ss;
  {
    FullObsScope obs_on;
    core::run_study(spec).write_json(on_ss);
  }

  const json::Value off_doc = json::parse(off_ss.str());
  const json::Value on_doc = json::parse(on_ss.str());
  // Metrics-off: no accounting/metrics members at all.
  EXPECT_EQ(off_doc.find("accounting"), nullptr);
  EXPECT_EQ(off_doc.find("metrics"), nullptr);
  // Metrics-on: both blocks present, and sane.
  ASSERT_NE(on_doc.find("accounting"), nullptr);
  ASSERT_NE(on_doc.find("metrics"), nullptr);
  EXPECT_GT(on_doc.at("accounting").at("wall_s").as_number(), 0.0);
  EXPECT_NE(on_doc.at("metrics").at("counters").find("campaign.runs"),
            nullptr);
  EXPECT_NE(on_doc.at("metrics").at("counters").find("convergence.refits"),
            nullptr);
  // Everything else: byte-identical.
  EXPECT_EQ(off_doc.dump(2), strip_obs_members(on_doc).dump(2));
}

TEST(ObsEquivalence, InstrumentedStudyEmitsAllPipelinePhaseSpans) {
  core::StudySpec spec;
  spec.suite = "bs";
  spec.mode = core::StudyMode::kPubTac;
  spec.config.convergence.max_runs = 2000;
  spec.config.tac.max_runs_cap = 2000;

  FullObsScope obs_on;
  (void)core::run_study(spec);
  const json::Value doc = trace_json();

  std::vector<std::string> seen;
  for (const json::Value& ev : doc.at("traceEvents").as_array()) {
    const json::Value* ph = ev.find("ph");
    if (ph != nullptr && ph->as_string() == "X") {
      seen.push_back(ev.at("name").as_string());
    }
  }
  for (const char* phase :
       {"study", "pub", "lower", "compile", "verify", "execute", "probe",
        "tac", "converge", "refit", "campaign", "evt_fit"}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), phase), seen.end())
        << "phase span missing from trace: " << phase;
  }
}

}  // namespace
}  // namespace mbcr::obs
