// The traced half of the benchmark: each study is rebuilt from the layers'
// public functions, in the order `core::Analyzer::analyze_program` calls
// them, and every call is timed from outside. Nothing under src/ is
// instrumented for this; the counts come from the calls' results.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "cpu/trace.hpp"

namespace studybench {

/// Per-layer totals of one traced pass. Times are host seconds.
struct LayerTotals {
  double pub_apply_s = 0;
  double ir_execute_s = 0;
  double cpu_compact_s = 0;
  double probe_s = 0;
  double converge_replay_s = 0;  ///< CampaignSampler::append_to callbacks
  double extend_s = 0;
  double measure_s = 0;          ///< measure-mode campaigns
  double tac_s = 0;
  double refit_s = 0;  ///< converge_stream minus its sampler callbacks
  double fit_s = 0;    ///< the two PwcetCurve fits
  double study_wall_s = 0;  ///< wall of the rebuilt studies

  std::uint64_t runs = 0;              ///< every replayed run
  std::uint64_t extend_runs = 0;
  std::uint64_t replayed_entries = 0;  ///< runs x CompactTrace entries
  std::uint64_t simulated_accesses = 0;  ///< runs x full-trace accesses
  std::uint64_t trace_accesses = 0;    ///< full MemTrace accesses per path
  std::uint64_t compact_entries = 0;   ///< CompactTrace entries per path
  std::uint64_t refits = 0;
  std::uint64_t tac_groups = 0;
  std::uint64_t tac_events = 0;
  std::uint64_t tac_required_runs = 0;

  double replay_s() const {
    return probe_s + converge_replay_s + extend_s + measure_s;
  }
  double layer_s() const {
    return pub_apply_s + ir_execute_s + cpu_compact_s + replay_s() + tac_s +
           refit_s + fit_s;
  }
};

/// In-memory span log: one entry per timed layer call, written out once
/// at the end as Chrome trace-event JSON.
class SpanLog {
public:
  using Clock = std::chrono::steady_clock;

  /// Times `fn()`, adds its duration to `total`, records a span named
  /// `name` under the current study, and returns fn's result.
  template <typename F>
  decltype(auto) time(const char* name, double& total, F&& fn) {
    const Clock::time_point start = Clock::now();
    struct Stop {
      SpanLog& log;
      const char* name;
      double& total;
      Clock::time_point start;
      ~Stop() { log.record(name, start, Clock::now(), total); }
    } stop{*this, name, total, start};
    return fn();
  }

  void set_study(std::string study) { study_ = std::move(study); }
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              double& total);
  void write_chrome_json(std::ostream& os) const;

private:
  struct Span {
    const char* name;
    std::string study;
    Clock::time_point start, end;
  };
  Clock::time_point origin_ = Clock::now();
  std::string study_;
  std::vector<Span> spans_;
};

/// What the rebuild produced, for comparison with run_study's result.
struct Rebuilt {
  std::vector<mbcr::core::PathAnalysis> paths;  ///< analysis modes
  std::vector<std::vector<double>> samples;     ///< measure mode
  /// Sampled campaign runs whose time disagreed with
  /// Machine::run_once_reference on the full trace.
  std::vector<std::string> spot_failures;
};

/// Rebuilds `spec` layer by layer (multipath paths run one after another),
/// adding to `totals` and `spans`. Then replays `spot_runs` sampled runs per
/// campaign on the reference machine; that check is not timed.
Rebuilt rebuild_study(const mbcr::core::StudySpec& spec, std::size_t spot_runs,
                      LayerTotals& totals, SpanLog& spans);

/// Differences between run_study's result and the rebuild: r_mbpta, r_tac,
/// r_total and the bit pattern of pWCET at the study's probability per
/// path; measure samples bit for bit. Empty when they agree.
std::vector<std::string> compare(const mbcr::core::StudyResult& untraced,
                                 const Rebuilt& rebuilt);

}  // namespace studybench
