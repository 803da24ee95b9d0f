#include "core/analyzer.hpp"

#include <algorithm>
#include <cstdio>
#include <new>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mbcr::core {

namespace {

/// The usage error for `input`'s campaign sample of `runs` runs when it
/// cannot be allocated: a request the flags made, not an internal failure.
std::invalid_argument too_large(const ir::InputVector& input,
                                std::size_t runs, const char* flags) {
  char bytes[32];
  std::snprintf(bytes, sizeof bytes, "%.0f",
                static_cast<double>(runs) * sizeof(double));
  return std::invalid_argument("path '" + input.label +
                               "': cannot allocate a campaign of " +
                               std::to_string(runs) + " runs (" + bytes +
                               " bytes); lower " + flags);
}

/// Runs `grow`, which grows `input`'s campaign sample to `runs` runs,
/// turning an allocation failure into `too_large`.
template <typename Grow>
auto grow_sample(const ir::InputVector& input, std::size_t runs,
                 const char* flags, const Grow& grow) {
  try {
    return grow();
  } catch (const std::bad_alloc&) {
    throw too_large(input, runs, flags);
  } catch (const std::length_error&) {
    throw too_large(input, runs, flags);
  }
}

constexpr const char* kAnalysisFlags = "--tac-target, --tac-cap or --max-runs";

}  // namespace

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
        [&](std::vector<double>& sample, std::size_t k) {
          grow_sample(input, sample.size() + k, kAnalysisFlags,
                      [&] { sampler.append_to(sample, k); });
        },
        conv);
  }();
  out.r_mbpta = convergence.runs;

  // 5. Extend the campaign to the TAC-required size, then fit pWCETs.
  out.r_total = std::max(out.r_mbpta, out.r_tac);
  if (convergence.sample.size() < out.r_total) {
    obs::Span span("extend");
    grow_sample(input, out.r_total, kAnalysisFlags, [&] {
      sampler.append_to(convergence.sample,
                        out.r_total - convergence.sample.size());
    });
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

std::vector<double> Analyzer::measure(const ir::Program& program,
                                      const ir::InputVector& input,
                                      std::size_t runs,
                                      std::size_t first_run) const {
  const ir::ExecResult exec = ir::lower_and_execute(program, input);
  const CompactTrace trace =
      CompactTrace::from(exec.trace, config_.machine.il1.line_bytes);
  return grow_sample(input, runs, "--runs", [&] {
    return platform::run_campaign(machine_, trace, runs, config_.campaign,
                                  first_run);
  });
}

}  // namespace mbcr::core
