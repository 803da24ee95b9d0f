// The declarative study surface over core::Analyzer: the paper's whole
// evaluation grid — {original, PUB-only, PUB+TAC, multipath, measure} ×
// {suite kernel | random program} × {machine/EVT/campaign configs} — as
// data instead of hand-written driver main()s.
//
// A StudySpec names the program (suite kernel name, or a randprog seed),
// the inputs (default / all paths / one labeled path), the mode, and every
// config override; `run_study()` executes it; a StudyResult uniformly
// carries per-path PathAnalysis data, pWCET curves on the log grid and
// run-count accounting, with JSON and CSV emitters. The `mbcr` CLI, the
// sharded sweep, the Table-2 and Corollary-2 benches and the quickstart
// and path-coverage examples drive analyses through this layer. The
// figure, Table-1 and ablation benches and the other examples call
// `Analyzer` directly, on programs and configs a spec does not name. A
// spec is a self-contained, serializable work unit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "util/json.hpp"

namespace mbcr::core {

enum class StudyMode {
  kOrig,       ///< plain MBPTA on the original program (R_orig baseline)
  kPub,        ///< PUB-only: MBPTA convergence on the pubbed program
  kPubTac,     ///< the paper's full PUB+TAC application process
  kMultipath,  ///< kPubTac with the input selection normalized to all paths
  kMeasure,    ///< raw campaign: N runs, no convergence/EVT (ECCDF data)
};

const char* to_string(StudyMode mode);
/// Accepts "orig", "pub", "pub_tac", "multipath", "measure"; throws
/// std::invalid_argument otherwise.
StudyMode parse_study_mode(const std::string& text);

/// Which of the program's inputs the study covers.
enum class InputSelection {
  kDefault,   ///< the benchmark's default input (paper Table 2)
  kAllPaths,  ///< every registered path input (paper Table 1 / Corollary 2)
  kLabel,     ///< one path input selected by label (e.g. "v9")
};

struct StudySpec {
  /// Program under study: exactly one of the two must be set.
  std::string suite;                           ///< suite kernel name
  std::optional<std::uint64_t> randprog_seed;  ///< ir::randprog seed

  StudyMode mode = StudyMode::kPubTac;
  InputSelection inputs = InputSelection::kDefault;
  std::string input_label;  ///< when inputs == kLabel

  /// Machine, campaign, TAC, convergence, EVT, PUB and pWCET-probability
  /// overrides, verbatim from the analyzer layer.
  AnalysisConfig config;

  std::size_t measure_runs = 10'000;  ///< mode == kMeasure: campaign size
  bool measure_pub = false;  ///< measure the pubbed program instead
  int curve_max_exp = 15;    ///< emitted curves go down to 1e-curve_max_exp

  /// Throws std::invalid_argument on an inconsistent spec (no/ambiguous
  /// program source, unknown suite name, bad probabilities, ...).
  void validate() const;

  /// The input selection as its CLI string: "default", "all", or a label
  /// ("default"/"all" are reserved words, not usable as labels).
  std::string input_selector() const;
  void set_input_selector(const std::string& selector);

  /// The flag surface understood by `from_flags`, as name -> default —
  /// directly usable as a `SubcommandCli` flag map.
  static std::map<std::string, std::string> flag_spec();

  /// Builds a spec from string flags (missing keys take `flag_spec`
  /// defaults, extra keys are ignored). Throws std::invalid_argument on
  /// unparsable values.
  static StudySpec from_flags(const std::map<std::string, std::string>& flags);

  json::Value to_json() const;

  /// Rebuilds a spec from its JSON form (`to_json`), completing the
  /// serializable-work-unit round trip. Accepts either a bare spec object
  /// or a whole saved StudyResult document (the `spec` member is used).
  /// Members absent from the document keep their defaults, so v1 documents
  /// (schema `mbcr-study-v1`, no hierarchy/placement fields) load as
  /// L2-disabled hash-placement specs — exactly what they meant — v2
  /// documents (no campaign batch width) get the default batch, which
  /// cannot change any replayed sample. The v4+ `executor` member may
  /// read "vm" or "tree" (the bytecode VM replays both bit-identically);
  /// any other value is rejected.
  /// Throws std::invalid_argument/std::runtime_error on malformed input.
  static StudySpec from_json(const json::Value& doc);
};

/// Raw execution times of one measured input (mode kMeasure).
struct MeasureSample {
  std::string input_label;
  std::vector<double> times;
};

/// Process-level cost of executing a study: wall clock plus getrusage
/// (user/sys CPU and the max-RSS high-water mark). Only collected while
/// the observability layer is enabled (`--metrics-json` / `--progress`);
/// `StudyResult::to_json` omits the block entirely otherwise, so default
/// output stays byte-identical with the instrumentation compiled in.
struct RunAccounting {
  bool collected = false;
  double wall_s = 0.0;      ///< wall-clock time of run_study
  double user_cpu_s = 0.0;  ///< user CPU across all threads (delta)
  double sys_cpu_s = 0.0;   ///< system CPU across all threads (delta)
  std::int64_t max_rss_kb = 0;  ///< process peak RSS (absolute, not delta)
};

struct StudyResult {
  StudySpec spec;            ///< the spec as executed (after normalization)
  std::string program_name;  ///< resolved name, e.g. "bs.pub"

  std::vector<PathAnalysis> paths;     ///< analysis modes: one per input
  std::vector<MeasureSample> samples;  ///< mode kMeasure

  /// Every platform run paid for: per path, probe + campaign runs; per
  /// measure sample, its campaign size.
  std::size_t runs_executed = 0;

  /// Filled by run_study only when obs::enabled() (absent by default).
  RunAccounting accounting;
  /// Metrics snapshot (obs::metrics_json) taken as run_study returns;
  /// emitted as the optional "metrics" member. Absent by default.
  std::optional<json::Value> metrics;

  /// Sharded-sweep provenance (schema v6, additive): filled by the sweep
  /// merge layer only, never by run_study, so direct `mbcr analyze` output
  /// and a fully-successful sweep merge stay byte-identical. `sweep`
  /// summarizes execution (attempts, retries); `failed_shards` lists
  /// quarantined shards and the exact run ranges they covered, making a
  /// partial result self-describing. Both absent by default.
  std::optional<json::Value> sweep;
  std::optional<json::Value> failed_shards;

  /// Corollary 2 over `paths`: the lowest pWCET at `p` across analyzed
  /// pubbed paths (0 when no paths).
  double pwcet_at(double p) const;
  /// Index of the path providing that minimum.
  std::size_t tightest_path(double p) const;

  json::Value to_json() const;
  void write_json(std::ostream& os) const;
  void write_csv(std::ostream& os) const;
};

/// Executes the spec: resolves the program and inputs, applies PUB once
/// when the mode analyzes the pubbed program, runs every input through the
/// analyzer (paths concurrently on the shared pool, at most
/// `config.campaign.threads` at a time; 1 = all on the calling thread), and
/// packages the uniform result. Multipath mode with a kDefault input
/// selection is normalized to kAllPaths (a one-path multipath study is
/// meaningless); the normalized spec is what the result carries.
StudyResult run_study(const StudySpec& spec);

/// One shard's worth of a measure-mode study: for every selected input,
/// executes runs [first_run, first_run + count) of its campaign — the same
/// deterministic per-run seeds (mix64(run, master_seed)) the full campaign
/// would use, so slices are position-independent and concatenation in run
/// order reproduces the unsliced sample exactly. Throws
/// std::invalid_argument when the spec is not measure mode or the range
/// exceeds measure_runs.
StudyResult run_measure_slice(const StudySpec& spec, std::size_t first_run,
                              std::size_t count);

/// Reassembles a measure-mode StudyResult from slices produced by
/// `run_measure_slice`, given in ascending first_run order. Samples are
/// concatenated per input; when the slices cover [0, measure_runs) the
/// JSON emitted is byte-identical to `run_study` on the unsliced spec.
/// Throws std::invalid_argument on an empty slice list or mismatched
/// program/input structure between slices.
StudyResult assemble_measure_result(const StudySpec& spec,
                                    const std::vector<StudyResult>& slices);

}  // namespace mbcr::core
