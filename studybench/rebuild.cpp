#include "rebuild.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "ir/interp.hpp"
#include "mbpta/convergence.hpp"
#include "platform/campaign.hpp"
#include "pub/pub_transform.hpp"
#include "suite/malardalen.hpp"
#include "tac/runs.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace studybench {

using namespace mbcr;
using core::StudyMode;

void SpanLog::record(const char* name, Clock::time_point start,
                     Clock::time_point end, double& total) {
  total += std::chrono::duration<double>(end - start).count();
  spans_.push_back({name, study_, start, end});
}

void SpanLog::write_chrome_json(std::ostream& os) const {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  json::Array events;
  events.reserve(spans_.size());
  for (const Span& s : spans_) {
    json::Object e;
    e.emplace_back("name", s.name);
    e.emplace_back("cat", s.study);
    e.emplace_back("ph", "X");
    e.emplace_back("ts", us(s.start));
    e.emplace_back("dur", us(s.end) - us(s.start));
    e.emplace_back("pid", 1);
    e.emplace_back("tid", 1);
    events.emplace_back(std::move(e));
  }
  json::Object doc;
  doc.emplace_back("traceEvents", std::move(events));
  json::Value(std::move(doc)).write(os, 0);
  os << "\n";
}

namespace {

/// The program and inputs a suite study resolves to (what run_study
/// analyzes; suite kernels only).
struct ResolvedStudy {
  ir::Program program;
  std::vector<ir::InputVector> inputs;
};

ResolvedStudy resolve(const core::StudySpec& spec) {
  const suite::SuiteEntry* entry = suite::find(spec.suite);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown suite benchmark: " + spec.suite);
  }
  suite::SuiteBenchmark b = entry->make();
  ResolvedStudy out{std::move(b.program), {}};
  switch (spec.inputs) {
    case core::InputSelection::kDefault:
      out.inputs = {std::move(b.default_input)};
      break;
    case core::InputSelection::kAllPaths:
      out.inputs = b.path_inputs.empty()
                       ? std::vector<ir::InputVector>{b.default_input}
                       : std::move(b.path_inputs);
      break;
    case core::InputSelection::kLabel:
      throw std::invalid_argument("studies select default or all inputs");
  }
  return out;
}

/// True when the study analyzes the PUB-transformed program.
bool analyzes_pubbed(const core::StudySpec& spec) {
  return spec.mode == StudyMode::kMeasure ? spec.measure_pub
                                          : spec.mode != StudyMode::kOrig;
}

/// A campaign run picked for the reference-model spot check.
struct SpotRun {
  std::size_t trace_index;  ///< into Pending::traces
  std::uint64_t run;
  std::uint64_t master_seed;
  double observed;
};

struct Pending {
  std::vector<MemTrace> traces;
  std::vector<SpotRun> runs;

  /// Picks the first, the last and `count - 2` seeded runs of `sample`.
  void pick(const MemTrace& trace, std::span<const double> sample,
            std::uint64_t master_seed, std::size_t count) {
    if (sample.empty() || count == 0) return;
    traces.push_back(trace);
    const std::size_t n = sample.size();
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t run =
          k == 0 ? 0 : k == 1 ? n - 1 : mix64(k, master_seed) % n;
      runs.push_back({traces.size() - 1, run, master_seed, sample[run]});
    }
  }
};

/// The all-miss ceiling Analyzer::analyze_program clamps the curves to,
/// computed from the full trace.
double all_miss_ceiling(const MemTrace& trace, const platform::MachineConfig& m) {
  const double extra =
      m.l2.enabled ? static_cast<double>(m.l2.latency) : 0.0;
  double ceiling = 0;
  for (const Access& a : trace.accesses) {
    ceiling += static_cast<double>(m.timing.cost(
                   a.is_instruction() ? AccessKind::kIFetch : AccessKind::kLoad,
                   false)) +
               extra;
  }
  return ceiling;
}

void count_tac_side(const tac::TacSequenceResult& side, LayerTotals& t) {
  t.tac_groups += side.groups_considered;
  t.tac_events += side.events.size();
}

/// Mirrors Analyzer::analyze_program step for step.
core::PathAnalysis analyze_path(const core::AnalysisConfig& cfg,
                                const platform::Machine& machine,
                                const ir::Program& program,
                                const ir::InputVector& input, bool with_tac,
                                std::size_t spot_runs, LayerTotals& t,
                                SpanLog& spans, Pending& pending) {
  core::PathAnalysis out;
  out.program_name = program.name;
  out.input_label = input.label;

  ir::ExecOptions exec_options;
  exec_options.executor = cfg.executor;
  const ir::ExecResult exec = spans.time("ir.lower_and_execute",
                                         t.ir_execute_s, [&] {
    return ir::lower_and_execute(program, input, exec_options);
  });
  const CompactTrace trace = spans.time(
      "cpu.CompactTrace::from", t.cpu_compact_s,
      [&] { return CompactTrace::from(exec.trace); });
  out.trace_accesses = trace.size();
  t.trace_accesses += exec.trace.size();
  t.compact_entries += trace.size();

  platform::CampaignConfig probe_cfg = cfg.campaign;
  probe_cfg.master_seed = mix64(0x9b0be, cfg.campaign.master_seed);
  const std::vector<double> probe =
      spans.time("platform.run_campaign(probe)", t.probe_s, [&] {
        return platform::run_campaign(machine, trace, cfg.baseline_probe_runs,
                                      probe_cfg);
      });
  out.baseline_cycles = mean(probe);

  if (with_tac) {
    out.tac = spans.time("tac.analyze_trace", t.tac_s, [&] {
      return tac::analyze_trace(
          exec.trace, cfg.machine.il1, cfg.machine.dl1, out.baseline_cycles,
          static_cast<double>(cfg.machine.timing.mem_latency), cfg.tac,
          cfg.machine.l2);
    });
    out.r_tac = out.tac.required_runs;
    count_tac_side(out.tac.il1, t);
    count_tac_side(out.tac.dl1, t);
    count_tac_side(out.tac.l2, t);
    t.tac_required_runs += out.tac.required_runs;
  }

  platform::CampaignSampler sampler(machine, trace, cfg.campaign);
  mbpta::ConvergenceConfig conv = cfg.convergence;
  conv.probability = cfg.pwcet_probability;
  double callbacks_s = 0;
  double converge_s = 0;
  mbpta::ConvergenceResult convergence =
      spans.time("mbpta.converge_stream", converge_s, [&] {
        return mbpta::converge_stream(
            [&](std::vector<double>& sample, std::size_t k) {
              spans.time("platform.CampaignSampler::append_to", callbacks_s,
                         [&] { sampler.append_to(sample, k); });
            },
            conv);
      });
  t.converge_replay_s += callbacks_s;
  t.refit_s += converge_s - callbacks_s;
  t.refits += convergence.estimates.size();
  out.r_mbpta = convergence.runs;

  out.r_total = std::max(out.r_mbpta, out.r_tac);
  if (convergence.sample.size() < out.r_total) {
    const std::size_t extra = out.r_total - convergence.sample.size();
    spans.time("platform.CampaignSampler::append_to(extend)", t.extend_s,
               [&] { sampler.append_to(convergence.sample, extra); });
    t.extend_runs += extra;
  }
  spans.time("mbpta.PwcetCurve(x2)", t.fit_s, [&] {
    out.pwcet_converged_only = mbpta::PwcetCurve(
        std::span<const double>(convergence.sample.data(), out.r_mbpta),
        conv.evt);
    out.pwcet = mbpta::PwcetCurve(convergence.sample, conv.evt);
  });
  const double ceiling = all_miss_ceiling(exec.trace, cfg.machine);
  out.pwcet.set_upper_bound(ceiling);
  out.pwcet_converged_only.set_upper_bound(ceiling);

  const std::uint64_t runs = probe.size() + convergence.sample.size();
  t.runs += runs;
  t.replayed_entries += runs * trace.size();
  t.simulated_accesses += runs * exec.trace.size();
  pending.pick(exec.trace, convergence.sample, cfg.campaign.master_seed,
               spot_runs);
  return out;
}

}  // namespace

Rebuilt rebuild_study(const core::StudySpec& spec, std::size_t spot_runs,
                      LayerTotals& t, SpanLog& spans) {
  const SpanLog::Clock::time_point start = SpanLog::Clock::now();
  const core::AnalysisConfig& cfg = spec.config;
  const platform::Machine machine(cfg.machine);
  ResolvedStudy resolved = resolve(spec);
  const ir::Program program =
      analyzes_pubbed(spec)
          ? spans.time("pub.apply_pub", t.pub_apply_s,
                       [&] { return pub::apply_pub(resolved.program, cfg.pub); })
          : std::move(resolved.program);

  Rebuilt out;
  Pending pending;
  for (const ir::InputVector& input : resolved.inputs) {
    if (spec.mode != StudyMode::kMeasure) {
      out.paths.push_back(analyze_path(
          cfg, machine, program, input,
          spec.mode == StudyMode::kPubTac || spec.mode == StudyMode::kMultipath,
          spot_runs, t, spans, pending));
      continue;
    }
    // Mirrors Analyzer::measure.
    ir::ExecOptions exec_options;
    exec_options.executor = cfg.executor;
    const ir::ExecResult exec = spans.time(
        "ir.lower_and_execute", t.ir_execute_s,
        [&] { return ir::lower_and_execute(program, input, exec_options); });
    const CompactTrace trace =
        spans.time("cpu.CompactTrace::from", t.cpu_compact_s,
                   [&] { return CompactTrace::from(exec.trace); });
    t.trace_accesses += exec.trace.size();
    t.compact_entries += trace.size();
    out.samples.push_back(
        spans.time("platform.run_campaign(measure)", t.measure_s, [&] {
          return platform::run_campaign(machine, trace, spec.measure_runs,
                                        cfg.campaign);
        }));
    t.runs += spec.measure_runs;
    t.replayed_entries += spec.measure_runs * trace.size();
    t.simulated_accesses += spec.measure_runs * exec.trace.size();
    pending.pick(exec.trace, out.samples.back(), cfg.campaign.master_seed,
                 spot_runs);
  }
  t.study_wall_s +=
      std::chrono::duration<double>(SpanLog::Clock::now() - start).count();

  for (const SpotRun& s : pending.runs) {
    const std::uint64_t expected = machine.run_once_reference(
        pending.traces[s.trace_index], mix64(s.run, s.master_seed));
    if (static_cast<double>(expected) != s.observed) {
      out.spot_failures.push_back(
          "run " + std::to_string(s.run) + ": campaign " +
          std::to_string(s.observed) + " != reference " +
          std::to_string(expected));
    }
  }
  return out;
}

std::vector<std::string> compare(const core::StudyResult& untraced,
                                 const Rebuilt& rebuilt) {
  std::vector<std::string> diffs;
  if (untraced.paths.size() != rebuilt.paths.size() ||
      untraced.samples.size() != rebuilt.samples.size()) {
    diffs.push_back("path/sample count differs");
    return diffs;
  }
  const double p = untraced.spec.config.pwcet_probability;
  for (std::size_t i = 0; i < untraced.paths.size(); ++i) {
    const core::PathAnalysis& a = untraced.paths[i];
    const core::PathAnalysis& b = rebuilt.paths[i];
    const std::string where = "path " + a.input_label + ": ";
    if (a.r_mbpta != b.r_mbpta) diffs.push_back(where + "r_mbpta differs");
    if (a.r_tac != b.r_tac) diffs.push_back(where + "r_tac differs");
    if (a.r_total != b.r_total) diffs.push_back(where + "r_total differs");
    if (std::bit_cast<std::uint64_t>(a.pwcet_at(p)) !=
        std::bit_cast<std::uint64_t>(b.pwcet_at(p))) {
      diffs.push_back(where + "pWCET bits differ");
    }
  }
  for (std::size_t i = 0; i < untraced.samples.size(); ++i) {
    const std::vector<double>& a = untraced.samples[i].times;
    const std::vector<double>& b = rebuilt.samples[i];
    if (a.size() != b.size() ||
        !std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
          return std::bit_cast<std::uint64_t>(x) ==
                 std::bit_cast<std::uint64_t>(y);
        })) {
      diffs.push_back("sample " + untraced.samples[i].input_label +
                      " differs");
    }
  }
  return diffs;
}

}  // namespace studybench
