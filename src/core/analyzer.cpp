#include "core/analyzer.hpp"

#include <algorithm>
#include <limits>

#include "obs/trace.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mbcr::core {

Analyzer::Analyzer(AnalysisConfig config)
    : config_(std::move(config)), machine_(config_.machine) {}

PathAnalysis Analyzer::analyze_program(const ir::Program& program,
                                       const ir::InputVector& input,
                                       bool with_tac) const {
  PathAnalysis out;
  out.program_name = program.name;
  out.input_label = input.label;

  // 1. One functional execution gives the path's address trace.
  const ir::ExecResult exec = ir::lower_and_execute(program, input);
  const CompactTrace trace =
      CompactTrace::from(exec.trace, config_.machine.il1.line_bytes);
  out.trace_accesses = trace.accesses;

  // 2. Probe campaign: typical execution time (anchors TAC's threshold).
  {
    obs::Span span("probe");
    platform::CampaignConfig probe_cfg = config_.campaign;
    probe_cfg.master_seed = mix64(0x9b0be, config_.campaign.master_seed);
    const std::vector<double> probe = platform::run_campaign(
        machine_, trace, config_.baseline_probe_runs, probe_cfg);
    out.baseline_cycles = mean(probe);
  }

  // 3. TAC on the trace (both cache sides, plus the unified L2 when the
  // hierarchy is enabled).
  if (with_tac) {
    obs::Span span("tac");
    out.tac = tac::analyze_trace(
        exec.trace, config_.machine.il1, config_.machine.dl1,
        out.baseline_cycles,
        static_cast<double>(config_.machine.timing.mem_latency), config_.tac,
        config_.machine.l2, config_.campaign.threads);
    out.r_tac = out.tac.required_runs;
  }

  // 4. MBPTA convergence on the same deterministic run sequence. The
  // sampler streams runs straight into the convergence sample — the one
  // buffer is grown in place across every delta (engine v2).
  platform::CampaignSampler sampler(machine_, trace, config_.campaign);
  mbpta::ConvergenceConfig conv = config_.convergence;
  conv.probability = config_.pwcet_probability;
  mbpta::ConvergenceResult convergence = [&] {
    obs::Span span("converge");
    return mbpta::converge_stream(
        [&sampler](std::vector<double>& sample, std::size_t k) {
          sampler.append_to(sample, k);
        },
        conv);
  }();
  out.r_mbpta = convergence.runs;

  // 5. Extend the campaign to the TAC-required size, then fit pWCETs.
  out.r_total = std::max(out.r_mbpta, out.r_tac);
  if (convergence.sample.size() < out.r_total) {
    obs::Span span("extend");
    sampler.append_to(convergence.sample,
                      out.r_total - convergence.sample.size());
  }
  {
    obs::Span span("evt_fit");
    out.pwcet_converged_only = mbpta::PwcetCurve(
        std::span<const double>(convergence.sample.data(), out.r_mbpta),
        conv.evt);
    // An unextended campaign fits the same runs twice: copy the curve
    // (its ECCDF is the O(d) counted form).
    out.pwcet = convergence.sample.size() == out.r_mbpta
                    ? out.pwcet_converged_only
                    : mbpta::PwcetCurve(convergence.sample, conv.evt);
  }
  // Architectural ceiling: no run can cost more than every access missing
  // at every level (with a hierarchy, a full miss adds the L2 probe on top
  // of the memory latency).
  const double ceiling =
      static_cast<double>(machine_.all_miss_cycles(exec.trace));
  out.pwcet.set_upper_bound(ceiling);
  out.pwcet_converged_only.set_upper_bound(ceiling);
  return out;
}

PathAnalysis Analyzer::analyze_original(const ir::Program& program,
                                        const ir::InputVector& input) const {
  return analyze_program(program, input, /*with_tac=*/false);
}

PathAnalysis Analyzer::analyze_pubbed(const ir::Program& program,
                                      const ir::InputVector& input,
                                      bool with_tac) const {
  const ir::Program pubbed = [&] {
    obs::Span span("pub");
    return pub::apply_pub(program, config_.pub);
  }();
  return analyze_program(pubbed, input, with_tac);
}

double combined_pwcet_at(std::span<const PathAnalysis> paths, double p) {
  double best = std::numeric_limits<double>::infinity();
  for (const PathAnalysis& a : paths) {
    best = std::min(best, a.pwcet.at(p));
  }
  return paths.empty() ? 0.0 : best;
}

std::size_t tightest_path_index(std::span<const PathAnalysis> paths,
                                double p) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < paths.size(); ++i) {
    if (paths[i].pwcet.at(p) < paths[best].pwcet.at(p)) best = i;
  }
  return best;
}

double Analyzer::MultiPathAnalysis::pwcet_at(double p) const {
  return combined_pwcet_at(per_path, p);
}

std::size_t Analyzer::MultiPathAnalysis::tightest_path(double p) const {
  return tightest_path_index(per_path, p);
}

Analyzer::MultiPathAnalysis Analyzer::analyze_pubbed_paths(
    const ir::Program& program, const std::vector<ir::InputVector>& inputs,
    bool with_tac) const {
  // PUB is applied once; each input then measures one pubbed path. All
  // per-path campaigns are batched onto the shared pool concurrently
  // (grain 1 = one path per claim). Each path's sample is a pure function
  // of its own run numbering and the master seed, so concurrent scheduling
  // cannot change any result; per_path order always matches `inputs`.
  // analyze_program itself runs nested campaigns on the same pool — safe
  // because parallel_for is re-entrant (the claiming thread participates).
  const ir::Program pubbed = [&] {
    obs::Span span("pub");
    return pub::apply_pub(program, config_.pub);
  }();
  MultiPathAnalysis out;
  out.per_path.resize(inputs.size());
  ThreadPool::shared().parallel_for(
      inputs.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out.per_path[i] = analyze_program(pubbed, inputs[i], with_tac);
        }
      });
  return out;
}

std::vector<double> Analyzer::measure(const ir::Program& program,
                                      const ir::InputVector& input,
                                      std::size_t runs,
                                      std::size_t first_run) const {
  const ir::ExecResult exec = ir::lower_and_execute(program, input);
  const CompactTrace trace =
      CompactTrace::from(exec.trace, config_.machine.il1.line_bytes);
  return platform::run_campaign(machine_, trace, runs, config_.campaign,
                                first_run);
}

}  // namespace mbcr::core
