// mbcr — the paper's evaluation grid as a command line.
//
// Every study the benches/examples compile in can also be requested
// declaratively here, without writing a driver:
//
//   mbcr analyze --suite bs --mode pub_tac            # full Fig. 3 process
//   mbcr analyze --suite bs --mode multipath          # Corollary 2, 8 paths
//   mbcr analyze --suite bs --l2-sets 256 --l2-policy random  # shared L2
//   mbcr measure --suite crc --input all --runs 20000 # raw ECCDF campaigns
//   mbcr pub     --suite cnt                          # PUB-only baseline
//   mbcr tac     --suite bs                           # TAC event detail
//   mbcr list                                         # suite registry
//   mbcr lint --fatal true                            # static verifier verdicts
//   mbcr analyze --suite bs --json bs.json && mbcr report bs.json
//   mbcr analyze --spec bs.json                       # replay a saved spec
//   mbcr fuzz --programs 50 --seeds 8 --rng-seed 1    # differential fuzzing
//   mbcr fuzz --replay tests/fuzz_corpus/corpus/x.json  # replay one repro
//   mbcr sweep --suites bs,crc --seeds 1,2 --shards 4 --json grid.json
//   mbcr sweep --dir mbcr-sweep --resume              # finish a crashed sweep
//
// All subcommands accept the StudySpec flag surface (see `mbcr analyze
// --help`); results can be emitted as JSON (--json FILE) and CSV
// (--csv FILE), with "-" meaning stdout. File outputs are written
// atomically (temp + rename), so a killed run never leaves a torn file.
//
// Exit codes: 0 success, 1 failure, 2 usage error, 3 partial sweep
// (quarantined shards, usable partial result), 130/143 interrupted by
// SIGINT/SIGTERM.
#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.hpp"
#include "core/study.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/repro.hpp"
#include "ir/bytecode.hpp"
#include "ir/lower.hpp"
#include "ir/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "suite/malardalen.hpp"
#include "sweep/merge.hpp"
#include "sweep/supervisor.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/signal.hpp"
#include "util/table.hpp"

namespace {

using namespace mbcr;

/// The observability surface, shared by every subcommand: metrics and
/// Chrome-trace dumps plus live progress on stderr.
std::map<std::string, std::string> with_obs_flags(
    std::map<std::string, std::string> flags) {
  flags.emplace("metrics-json", "");
  flags.emplace("trace-json", "");
  flags.emplace("progress", "false");
  return flags;
}

std::map<std::string, std::string> study_flags(bool with_mode) {
  std::map<std::string, std::string> flags = core::StudySpec::flag_spec();
  if (!with_mode) flags.erase("mode");
  flags.emplace("json", "");
  flags.emplace("csv", "");
  return flags;
}

/// An integer flag narrowed to `T`: a value `T` cannot hold is a usage
/// error naming the flag (exit 2), never a wrapped count.
template <typename T>
T uint_flag(const SubcommandCli::Parsed& cmd, const char* name) {
  return parse_uint<T>(name, cmd.str(name));
}

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create directory " + path + ": " +
                             std::strerror(errno));
  }
}

void emit_to(const std::string& path, const char* what,
             const std::function<void(std::ostream&)>& write) {
  if (path == "-") {
    write(std::cout);
    return;
  }
  // All file emitters go through the atomic writer: an interrupted or
  // crashed run leaves either the previous file or the new one, never a
  // truncated hybrid.
  std::ostringstream text;
  write(text);
  util::write_file_atomic(path, text.str());
  std::cerr << "[" << what << " written to " << path << "]\n";
}

/// What `--metrics-json` / `--trace-json` / `--progress` asked for.
struct ObsRequest {
  std::string metrics_path;
  std::string trace_path;
  bool progress = false;
};

/// Reads the observability flags (tolerating subcommands without them) and
/// arms the layer before the subcommand runs. Collection (metrics + the
/// StudyResult accounting/metrics blocks) turns on for --metrics-json or
/// --progress; tracing only for --trace-json.
ObsRequest setup_obs(const SubcommandCli::Parsed& cmd) {
  ObsRequest req;
  if (const auto it = cmd.values.find("metrics-json");
      it != cmd.values.end()) {
    req.metrics_path = it->second;
  }
  if (const auto it = cmd.values.find("trace-json"); it != cmd.values.end()) {
    req.trace_path = it->second;
  }
  if (const auto it = cmd.values.find("progress"); it != cmd.values.end()) {
    req.progress = parse_bool("progress", it->second);
  }
  obs::set_enabled(!req.metrics_path.empty() || req.progress);
  obs::set_trace_enabled(!req.trace_path.empty());
  obs::set_progress_enabled(req.progress);
  return req;
}

/// Writes the requested metrics/trace documents after the subcommand
/// finished (so the snapshots cover its whole run).
void emit_obs(const ObsRequest& req) {
  if (!req.metrics_path.empty()) {
    emit_to(req.metrics_path, "metrics", [](std::ostream& os) {
      obs::metrics_document().write(os, 2);
      os << "\n";
    });
  }
  if (!req.trace_path.empty()) {
    emit_to(req.trace_path, "trace", [](std::ostream& os) {
      obs::trace_json().write(os, 2);
      os << "\n";
    });
  }
}

core::StudySpec load_spec_file(const std::string& path) {
  // Fail closed, loudly, as a *usage* error (exit 2): a missing file, torn
  // JSON (parse errors carry the byte offset) or a type-mangled spec all
  // surface with the path attached — never a half-default spec.
  std::ifstream file(path);
  if (!file) throw std::invalid_argument("--spec: cannot read " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  try {
    return core::StudySpec::from_json(json::parse(buffer.str()));
  } catch (const std::exception& e) {
    throw std::invalid_argument("--spec " + path + ": " + e.what());
  }
}

int emit(const core::StudyResult& result, const SubcommandCli::Parsed& cmd) {
  const std::string& json_path = cmd.str("json");
  const std::string& csv_path = cmd.str("csv");
  if (!json_path.empty()) {
    emit_to(json_path, "json",
            [&](std::ostream& os) { result.write_json(os); });
  }
  if (!csv_path.empty()) {
    emit_to(csv_path, "csv", [&](std::ostream& os) { result.write_csv(os); });
  }
  if (json_path != "-" && csv_path != "-") {
    core::print_study(std::cout, result);
  }
  return 0;
}

core::StudyResult run_spec(const SubcommandCli::Parsed& cmd,
                           const char* forced_mode) {
  // --spec FILE replays a saved StudySpec JSON (bare spec or whole result
  // document) verbatim; the study flags on the command line are ignored
  // then, so the file remains the single source of truth.
  const auto spec_path = cmd.values.find("spec");
  core::StudySpec spec =
      (spec_path != cmd.values.end() && !spec_path->second.empty())
          ? load_spec_file(spec_path->second)
          : core::StudySpec::from_flags(cmd.values);
  if (forced_mode) spec.mode = core::parse_study_mode(forced_mode);
  return core::run_study(spec);
}

int cmd_analyze(const SubcommandCli::Parsed& cmd, const char* forced_mode) {
  return emit(run_spec(cmd, forced_mode), cmd);
}

int cmd_tac(const SubcommandCli::Parsed& cmd) {
  const core::StudyResult result = run_spec(cmd, "pub_tac");
  const int code = emit(result, cmd);
  if (cmd.str("json") == "-" || cmd.str("csv") == "-") {
    return code;  // stdout carries machine-readable output; no table
  }
  // TAC event detail per path, beyond the summary lines.
  AsciiTable table({"input", "side", "k", "combos", "extra misses",
                    "p(event)", "R"});
  for (const core::PathAnalysis& pa : result.paths) {
    const auto add_side = [&](const char* side,
                              const tac::TacSequenceResult& r) {
      for (const tac::TacEvent& ev : r.events) {
        std::ostringstream p;
        p << ev.probability;
        table.add_row({pa.input_label, side, std::to_string(ev.group_size),
                       fmt(ev.combination_count, 0), fmt(ev.extra_misses, 1),
                       p.str(), std::to_string(ev.required_runs)});
      }
    };
    add_side("IL1", pa.tac.il1);
    add_side("DL1", pa.tac.dl1);
    add_side("L2", pa.tac.l2);
  }
  if (table.rows() == 0) {
    std::cout << "\nno relevant TAC events above the impact threshold\n";
  } else {
    std::cout << "\nTAC events (impact above threshold):\n";
    table.print(std::cout);
  }
  return code;
}

int cmd_list() {
  AsciiTable table({"benchmark", "classification", "path inputs",
                    "default hits worst path"});
  for (const suite::SuiteEntry& entry : suite::all()) {
    const suite::SuiteBenchmark b = entry.make();
    table.add_row({std::string(entry.name),
                   b.single_path ? "single-path" : "multipath",
                   std::to_string(std::max<std::size_t>(
                       1, b.path_inputs.size())),
                   b.single_path ? "n/a"
                                 : (b.default_hits_worst_path ? "yes" : "no")});
  }
  table.print(std::cout);
  std::cout << "\n11 Malardalen kernels (paper Table 2 order); analyze one "
               "with `mbcr analyze --suite <name>`.\n";
  return 0;
}

/// Derives the fuzz-throughput trend document (BENCH_fuzz.json) from the
/// metrics the fuzz driver collected: overall cases/sec and coverage
/// features-discovered/sec, plus per-oracle run counts and wall time. The
/// per-oracle rows come from the caller's "fuzz.oracle.<name>.{runs,wall_ns}"
/// counter snapshot (taken before any blind baseline re-run, so they
/// describe the reported run only). `blind`, when present, is a
/// same-budget same-seed mutation-off re-run — the coverage floor the
/// guided schedule has to beat, recorded next to the guided numbers.
json::Value fuzz_bench_document(const fuzz::FuzzConfig& cfg,
                                const fuzz::FuzzReport& report,
                                const json::Value& metrics,
                                const fuzz::FuzzReport* blind) {
  const double wall_s = report.wall_s;
  json::Object doc;
  doc.emplace_back("schema", "mbcr-bench-fuzz-v2");
  doc.emplace_back("obs_compiled_in", true);
  doc.emplace_back("guided", cfg.guided);
  doc.emplace_back("coverage_measured", true);
  doc.emplace_back("programs", cfg.programs);
  doc.emplace_back("seeds", cfg.seeds);
  doc.emplace_back("oracle", cfg.oracle);
  doc.emplace_back("rng_seed", std::to_string(cfg.rng_seed));
  doc.emplace_back("cases", report.cases_run);
  doc.emplace_back("oracle_runs", report.oracle_runs);
  doc.emplace_back("blind_cases", report.blind_cases);
  doc.emplace_back("mutated_cases", report.mutated_cases);
  doc.emplace_back("rejected_cases", report.rejected_cases);
  doc.emplace_back("wall_s", wall_s);
  doc.emplace_back("cases_per_sec",
                   wall_s > 0.0
                       ? static_cast<double>(report.cases_run) / wall_s
                       : 0.0);
  doc.emplace_back("features_discovered", report.features_discovered);
  doc.emplace_back(
      "features_per_sec",
      wall_s > 0.0 ? static_cast<double>(report.features_discovered) / wall_s
                   : 0.0);
  doc.emplace_back(
      "features_per_case",
      report.cases_run > 0
          ? static_cast<double>(report.features_discovered) /
                static_cast<double>(report.cases_run)
          : 0.0);
  doc.emplace_back("corpus_entries", report.corpus.size());

  if (blind != nullptr) {
    json::Object baseline;
    baseline.emplace_back("cases", blind->cases_run);
    baseline.emplace_back("features_discovered", blind->features_discovered);
    baseline.emplace_back(
        "features_per_case",
        blind->cases_run > 0
            ? static_cast<double>(blind->features_discovered) /
                  static_cast<double>(blind->cases_run)
            : 0.0);
    baseline.emplace_back(
        "features_per_sec",
        blind->wall_s > 0.0
            ? static_cast<double>(blind->features_discovered) / blind->wall_s
            : 0.0);
    doc.emplace_back("blind_baseline", json::Value(std::move(baseline)));
  }

  // One row per oracle: runs, total wall, and the mean latency per run.
  const json::Value& snapshot = metrics;
  const json::Object& counters = snapshot.at("counters").as_object();
  json::Object oracles;
  constexpr std::string_view kPrefix = "fuzz.oracle.";
  constexpr std::string_view kRunsSuffix = ".runs";
  for (const auto& [name, value] : counters) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    if (name.size() < kRunsSuffix.size() ||
        name.compare(name.size() - kRunsSuffix.size(), kRunsSuffix.size(),
                     kRunsSuffix) != 0) {
      continue;
    }
    const std::string oracle_name = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kRunsSuffix.size());
    const double runs = value.as_number();
    const json::Value* wall_ns =
        snapshot.at("counters").find(std::string(kPrefix) + oracle_name +
                                     ".wall_ns");
    const double total_ns = wall_ns != nullptr ? wall_ns->as_number() : 0.0;
    json::Object row;
    row.emplace_back("runs", runs);
    row.emplace_back("wall_s", total_ns * 1e-9);
    row.emplace_back("mean_us_per_run",
                     runs > 0.0 ? total_ns * 1e-3 / runs : 0.0);
    oracles.emplace_back(oracle_name, json::Value(std::move(row)));
  }
  doc.emplace_back("oracles", json::Value(std::move(oracles)));
  return json::Value(std::move(doc));
}

int cmd_fuzz(const SubcommandCli::Parsed& cmd) {
  if (const std::string& path = cmd.str("replay"); !path.empty()) {
    const fuzz::Repro repro = fuzz::load_repro(path);
    const fuzz::OracleOutcome outcome = fuzz::run_repro(repro);
    if (outcome.ok) {
      std::cout << "repro " << path << " (oracle " << repro.oracle
                << "): PASS\n";
      return 0;
    }
    std::cerr << "repro " << path << " FAILED: " << outcome.detail << "\n";
    return 1;
  }

  fuzz::FuzzConfig cfg;
  cfg.programs = uint_flag<std::size_t>(cmd, "programs");
  cfg.seeds = uint_flag<std::size_t>(cmd, "seeds");
  cfg.time_budget_s = cmd.real("time-budget");
  cfg.rng_seed = cmd.integer("rng-seed");
  cfg.oracle = cmd.str("oracle");
  cfg.corpus_dir = cmd.str("corpus");
  cfg.shrink = parse_bool("shrink", cmd.str("shrink"));
  cfg.guided = parse_bool("guided", cmd.str("guided"));
  cfg.corpus_out = cmd.str("corpus-out");
  cfg.log = &std::cerr;
  const std::string& coverage_path = cmd.str("coverage-json");
  const std::string& bench_path = cmd.str("bench-json");

  // --bench-json reports the per-oracle latency counters of this run
  // only, so it starts them from a clean slate.
  if (!bench_path.empty()) obs::reset_metrics();
  if (!cfg.corpus_out.empty()) make_dir(cfg.corpus_out);

  // run_fuzz validates the config (unknown --oracle names included)
  // before any case runs; its invalid_argument reaches main's usage-error
  // path (stderr, exit 2).
  const fuzz::FuzzReport report = fuzz::run_fuzz(cfg);

  if (!bench_path.empty()) {
    // Snapshot the oracle counters before the baseline re-run below so the
    // per-oracle latency rows describe the reported run only.
    const json::Value metrics = obs::metrics_json();
    fuzz::FuzzReport blind;
    const bool have_blind = cfg.guided && report.interrupted_by == 0;
    if (have_blind) {
      fuzz::FuzzConfig bcfg = cfg;
      bcfg.guided = false;
      bcfg.corpus_out.clear();
      bcfg.log = nullptr;
      blind = fuzz::run_fuzz(bcfg);
    }
    const json::Value doc = fuzz_bench_document(
        cfg, report, metrics, have_blind ? &blind : nullptr);
    emit_to(bench_path, "fuzz bench", [&](std::ostream& os) {
      doc.write(os, 2);
      os << "\n";
    });
  }
  if (!coverage_path.empty()) {
    const json::Value doc = fuzz::coverage_document(cfg, report);
    emit_to(coverage_path, "fuzz coverage", [&](std::ostream& os) {
      doc.write(os, 2);
      os << "\n";
    });
  }

  std::cout << "fuzz: " << report.cases_run << " program(s) x " << cfg.seeds
            << " seed(s), " << report.oracle_runs << " oracle run(s): "
            << (report.ok() ? "all passed"
                            : std::to_string(report.failures.size()) +
                                  " FAILURE(S)")
            << "\n";
  std::cout << "fuzz: " << report.features_discovered
            << " coverage feature(s), " << report.corpus.size()
            << " corpus seed(s) (" << report.blind_cases << " blind / "
            << report.mutated_cases << " mutated / " << report.rejected_cases
            << " rejected case(s))\n";
  for (const fuzz::FuzzFailure& f : report.failures) {
    std::cout << "  case " << f.case_index << " oracle " << f.oracle << ": "
              << f.detail << "\n";
    if (!f.repro_path.empty()) {
      std::cout << "    repro: " << f.repro_path << "\n";
    }
  }
  if (report.interrupted_by != 0) {
    // The campaign stopped early on SIGINT/SIGTERM; everything written so
    // far (repros, corpus seeds, bench doc) is intact, but signal the
    // interruption.
    std::cerr << "mbcr: fuzz interrupted by signal " << report.interrupted_by
              << " after " << report.cases_run << " case(s)\n";
    return 128 + report.interrupted_by;
  }
  return report.ok() ? 0 : 1;
}

int cmd_lint(const SubcommandCli::Parsed& cmd) {
  // Compile every suite kernel and run the static verifier over its
  // bytecode. One verdict row per kernel; any diagnostic is printed in full
  // below the table. --fatal turns a rejection into exit 1 (the CI smoke
  // uses it).
  const std::string& only = cmd.str("suite");
  const bool fatal = parse_bool("fatal", cmd.str("fatal"));
  if (!only.empty() && suite::find(only) == nullptr) {
    throw std::invalid_argument("unknown --suite " + only);
  }

  AsciiTable table({"kernel", "ops", "max stack", "dead ops", "verdict"});
  std::size_t rejected = 0;
  std::ostringstream diagnostics;
  for (const suite::SuiteEntry& entry : suite::all()) {
    if (!only.empty() && only != entry.name) continue;
    const suite::SuiteBenchmark bench = entry.make();
    const ir::BytecodeProgram bc =
        ir::compile(bench.program, ir::lower(bench.program));
    const ir::VerifyResult facts = ir::verify(bc);
    if (!facts.ok()) {
      ++rejected;
      diagnostics << entry.name << ":\n" << facts.describe();
    }
    table.add_row({std::string(entry.name), std::to_string(bc.ops.size()),
                   std::to_string(facts.computed_max_stack),
                   std::to_string(facts.dead_ops.size()),
                   facts.ok() ? "ok" : "REJECTED"});
  }
  table.print(std::cout);
  if (rejected > 0) {
    std::cout << "\n" << diagnostics.str();
    std::cout << rejected << " kernel(s) rejected by the verifier\n";
  } else {
    std::cout << "\nall kernels verify clean\n";
  }
  return (fatal && rejected > 0) ? 1 : 0;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  for (const char c : text) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item += c;
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

/// The sweep axes + supervisor knobs on top of the StudySpec surface.
std::map<std::string, std::string> sweep_flags() {
  std::map<std::string, std::string> flags = core::StudySpec::flag_spec();
  flags.emplace("suites", "");       // comma lists; empty = base value
  flags.emplace("geometries", "");   // e.g. 64x2,128x4
  flags.emplace("l2-policies", "");  // random,lru (needs L2 enabled)
  flags.emplace("placements", "");   // hash,modulo
  flags.emplace("seeds", "");        // campaign master seeds
  flags.emplace("slice-runs", "0");  // measure mode: runs per unit
  flags.emplace("shards", "1");
  flags.emplace("jobs", "0");        // 0 = min(shards, cores)
  flags.emplace("retries", "2");
  flags.emplace("timeout-s", "0");   // per-attempt; 0 = unlimited
  flags.emplace("backoff-ms", "100");
  flags.emplace("backoff-max-ms", "5000");
  flags.emplace("dir", "mbcr-sweep");
  flags.emplace("resume", "false");
  flags.emplace("json", "");
  return flags;
}

int cmd_sweep(const SubcommandCli::Parsed& cmd, const char* argv0) {
  sweep::SupervisorConfig config;
  config.shards = uint_flag<std::size_t>(cmd, "shards");
  config.jobs = uint_flag<std::size_t>(cmd, "jobs");
  config.retries = uint_flag<int>(cmd, "retries");
  config.timeout_s = cmd.real("timeout-s");
  config.backoff_base_ms = cmd.integer("backoff-ms");
  config.backoff_max_ms = cmd.integer("backoff-max-ms");
  config.dir = cmd.str("dir");
  config.resume = parse_bool("resume", cmd.str("resume"));
  config.argv0 = argv0;
  config.log = &std::cerr;

  sweep::SweepSpec spec;
  if (config.resume) {
    // On --resume the journaled manifest is the single source of truth;
    // the study/axis flags on the command line are ignored, so a resumed
    // sweep cannot silently diverge from what its journal records.
    spec = sweep::SweepSpec::from_json(
        sweep::load_manifest(config.dir).spec);
  } else {
    spec.base = core::StudySpec::from_flags(cmd.values);
    spec.suites = split_list(cmd.str("suites"));
    spec.geometries = split_list(cmd.str("geometries"));
    spec.l2_policies = split_list(cmd.str("l2-policies"));
    spec.placements = split_list(cmd.str("placements"));
    for (const std::string& s : split_list(cmd.str("seeds"))) {
      spec.seeds.push_back(parse_u64("seeds", s));
    }
    spec.slice_runs = uint_flag<std::size_t>(cmd, "slice-runs");
  }

  const sweep::SweepOutcome outcome = sweep::run_sweep(spec, config);
  const sweep::MergeOutput merged = sweep::merge_sweep(config.dir);

  const std::string& json_path = cmd.str("json");
  if (!json_path.empty()) {
    emit_to(json_path, "sweep json", [&](std::ostream& os) {
      merged.doc.write(os, 2);
      os << "\n";
    });
  }
  if (json_path != "-") {
    std::cout << "sweep " << outcome.sweep_id << ": " << merged.points
              << " point(s) over " << outcome.shards << " shard(s); "
              << outcome.completed.size() << " completed, "
              << outcome.skipped.size() << " skipped (resume), "
              << outcome.quarantined.size() << " quarantined\n";
    if (!outcome.quarantined.empty()) {
      std::cout << "  quarantined shard(s):";
      for (const std::size_t s : outcome.quarantined) std::cout << " " << s;
      std::cout << "\n";
    }
    if (merged.partial) {
      std::cout << "  partial result: " << merged.points_complete << "/"
                << merged.points
                << " point(s) complete; re-run with --resume to retry the "
                   "failed shards\n";
    }
  }
  if (outcome.interrupted_by != 0) {
    std::cerr << "mbcr: sweep interrupted by signal " << outcome.interrupted_by
              << "; journal kept in " << config.dir
              << " (finish with --resume)\n";
    return 128 + outcome.interrupted_by;
  }
  if (merged.partial) return merged.any_results() ? 3 : 1;
  return 0;
}

int cmd_worker(const SubcommandCli::Parsed& cmd) {
  return sweep::run_worker(cmd.str("dir"),
                           uint_flag<std::size_t>(cmd, "shard"),
                           uint_flag<int>(cmd, "attempt"));
}

int cmd_report(const SubcommandCli::Parsed& cmd) {
  const std::string& path = cmd.str("file");
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const json::Value doc = json::parse(buffer.str());
  core::print_study_json(std::cout, doc);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SubcommandCli cli(
      "mbcr",
      "mbcr — measurement-based probabilistic timing analysis with PUB+TAC\n"
      "(DAC'18 reproduction): declarative studies over the Malardalen suite\n"
      "and random programs, on the randomized-cache platform model.");
  std::map<std::string, std::string> analyze_flags =
      study_flags(/*with_mode=*/true);
  analyze_flags.emplace("spec", "");  // saved StudySpec JSON as input
  cli.add_command({"analyze", "run a study (choose the mode with --mode)",
                   with_obs_flags(std::move(analyze_flags)), {}});
  cli.add_command({"measure",
                   "raw measurement campaign, no EVT (mode=measure)",
                   with_obs_flags(study_flags(false)), {}});
  cli.add_command({"pub", "PUB-only analysis, no TAC (mode=pub)",
                   with_obs_flags(study_flags(false)), {}});
  cli.add_command({"tac", "PUB+TAC analysis with TAC event detail",
                   with_obs_flags(study_flags(false)), {}});
  cli.add_command({"list", "list the benchmark suite registry",
                   with_obs_flags({}), {}});
  cli.add_command({"lint",
                   "static verifier verdicts for the suite kernels",
                   with_obs_flags({{"suite", ""}, {"fatal", "false"}}),
                   {}});
  cli.add_command({"report", "pretty-print a saved JSON study result",
                   with_obs_flags({}), {"file"}});
  cli.add_command({"fuzz",
                   "differential fuzzing: random programs vs the oracles",
                   with_obs_flags({{"programs", "50"},
                                   {"seeds", "8"},
                                   {"time-budget", "0"},
                                   {"oracle", "all"},
                                   {"rng-seed", "1"},
                                   {"corpus", ""},
                                   {"shrink", "true"},
                                   {"replay", ""},
                                   {"guided", "false"},
                                   {"corpus-out", ""},
                                   {"coverage-json", ""},
                                   {"bench-json", ""}}),
                   {}});
  cli.add_command({"sweep",
                   "fault-tolerant sharded sweep over a study grid",
                   with_obs_flags(sweep_flags()), {}});
  cli.add_command({"worker",
                   "internal: execute one sweep shard (spawned by sweep)",
                   with_obs_flags(
                       {{"dir", "mbcr-sweep"}, {"shard", "0"},
                        {"attempt", "0"}}),
                   {}});

  const SubcommandCli::Parsed cmd = cli.parse_or_exit(argc, argv);
  util::install_shutdown_handlers();
  try {
    const ObsRequest obs_req = setup_obs(cmd);
    const int code = [&]() -> int {
      if (cmd.command == "analyze") return cmd_analyze(cmd, nullptr);
      if (cmd.command == "measure") return cmd_analyze(cmd, "measure");
      if (cmd.command == "pub") return cmd_analyze(cmd, "pub");
      if (cmd.command == "tac") return cmd_tac(cmd);
      if (cmd.command == "list") return cmd_list();
      if (cmd.command == "lint") return cmd_lint(cmd);
      if (cmd.command == "report") return cmd_report(cmd);
      if (cmd.command == "fuzz") return cmd_fuzz(cmd);
      if (cmd.command == "sweep") return cmd_sweep(cmd, argv[0]);
      if (cmd.command == "worker") return cmd_worker(cmd);
      std::cerr << "mbcr: unhandled subcommand " << cmd.command << "\n";
      return 1;
    }();
    emit_obs(obs_req);
    return code;
  } catch (const util::ShutdownRequested& e) {
    // A campaign/fuzz loop unwound on SIGINT/SIGTERM: conventional shell
    // exit code (130/143), distinct from failures and usage errors.
    std::cerr << "mbcr: interrupted by signal " << e.signal() << "\n";
    return e.exit_code();
  } catch (const std::invalid_argument& e) {
    // Bad flag *values* (unknown enum spellings like --l2-policy bogus,
    // malformed numbers, inconsistent specs) take the same loud path as
    // unknown flags: stderr + exit 2, never a silent default.
    exit_usage_error("mbcr", e.what());
  } catch (const std::exception& e) {
    std::cerr << "mbcr: " << e.what() << "\n";
    return 1;
  }
}
