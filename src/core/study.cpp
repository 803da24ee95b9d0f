#include "core/study.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "ir/randprog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "suite/malardalen.hpp"
#include "util/cli.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mbcr::core {

namespace {

/// Shortest round-trippable text for a double (CSV cells; the JSON writer
/// does the same internally).
std::string num_text(double d) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d);
  return std::string(buf, end);
}

json::Value num_or_null(double d) {
  return std::isfinite(d) ? json::Value(d) : json::Value();
}

double parse_double(const char* flag, const std::string& text) {
  std::size_t used = 0;
  double out = 0;
  try {
    out = std::stod(text, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (used != text.size() || !std::isfinite(out)) {
    throw std::invalid_argument(std::string("flag --") + flag +
                                ": expected a finite number, got '" + text +
                                "'");
  }
  return out;
}

struct Resolved {
  ir::Program program;
  std::vector<ir::InputVector> inputs;
};

Resolved resolve(const StudySpec& spec) {
  Resolved out;
  if (!spec.suite.empty()) {
    const suite::SuiteEntry* entry = suite::find(spec.suite);
    if (!entry) {
      throw std::invalid_argument("unknown suite benchmark: " + spec.suite);
    }
    suite::SuiteBenchmark b = entry->make();
    out.program = std::move(b.program);
    switch (spec.inputs) {
      case InputSelection::kDefault:
        out.inputs = {std::move(b.default_input)};
        break;
      case InputSelection::kAllPaths:
        // Single-path kernels register no path inputs; the default input
        // IS the path set.
        out.inputs = b.path_inputs.empty()
                         ? std::vector<ir::InputVector>{b.default_input}
                         : std::move(b.path_inputs);
        break;
      case InputSelection::kLabel: {
        if (b.default_input.label == spec.input_label) {
          out.inputs = {std::move(b.default_input)};
          break;
        }
        for (ir::InputVector& in : b.path_inputs) {
          if (in.label == spec.input_label) {
            out.inputs = {std::move(in)};
            break;
          }
        }
        if (out.inputs.empty()) {
          std::string known;
          for (const ir::InputVector& in : b.path_inputs) {
            known += known.empty() ? in.label : ", " + in.label;
          }
          throw std::invalid_argument("no input labeled '" + spec.input_label +
                                      "' in " + spec.suite +
                                      " (known: " + known + ")");
        }
        break;
      }
    }
  } else {
    // Random program: the seed pins both the program and its inputs.
    Xoshiro256 rng(*spec.randprog_seed);
    const ir::RandProgConfig rp_config;
    out.program = ir::random_program(rng, rp_config);
    const std::size_t n = spec.inputs == InputSelection::kAllPaths ? 4 : 1;
    for (std::size_t i = 0; i < n; ++i) {
      ir::InputVector in = ir::random_input(out.program, rng, rp_config);
      in.label = "rnd" + std::to_string(i);
      out.inputs.push_back(std::move(in));
    }
  }
  return out;
}

json::Value tac_side_json(const tac::TacSequenceResult& side) {
  json::Array events;
  for (const tac::TacEvent& ev : side.events) {
    json::Object e;
    e.emplace_back("group_size", ev.group_size);
    e.emplace_back("combination_count", ev.combination_count);
    e.emplace_back("extra_misses", ev.extra_misses);
    e.emplace_back("probability", ev.probability);
    e.emplace_back("required_runs", ev.required_runs);
    events.emplace_back(std::move(e));
  }
  json::Object o;
  o.emplace_back("required_runs", side.required_runs);
  o.emplace_back("groups_considered", side.groups_considered);
  o.emplace_back("events", std::move(events));
  return json::Value(std::move(o));
}

json::Value pwcet_json(const mbpta::PwcetCurve& curve, double probability,
                       int max_exp) {
  json::Object o;
  o.emplace_back("probability", probability);
  o.emplace_back("value", num_or_null(curve.at(probability)));
  o.emplace_back("sample_size", curve.sample_size());
  o.emplace_back("upper_bound", num_or_null(curve.upper_bound()));
  {
    const mbpta::ExpTailFit& tail = curve.tail();
    json::Object t;
    t.reserve(6);
    t.emplace_back("threshold", tail.threshold);
    t.emplace_back("rate", num_or_null(tail.rate));
    t.emplace_back("zeta", tail.zeta);
    t.emplace_back("n_exceedances", tail.n_exceedances);
    t.emplace_back("cv", tail.cv);
    t.emplace_back("cv_accepted", tail.cv_accepted);
    o.emplace_back("tail", json::Value(std::move(t)));
  }
  {
    const mbpta::IidReport& iid = curve.iid();
    json::Object t;
    t.reserve(5);
    t.emplace_back("runs_test_p", iid.runs_test_p);
    t.emplace_back("ljung_box_p", iid.ljung_box_p);
    t.emplace_back("ks_split_p", iid.ks_split_p);
    t.emplace_back("independent", iid.independent);
    t.emplace_back("identically_distributed", iid.identically_distributed);
    o.emplace_back("iid", json::Value(std::move(t)));
  }
  json::Array points;
  for (const mbpta::PwcetCurve::CurvePoint& p : curve.grid(max_exp)) {
    json::Object e;
    e.emplace_back("p", p.probability);
    e.emplace_back("pwcet", num_or_null(p.pwcet));
    e.emplace_back("extrapolated", p.extrapolated);
    points.emplace_back(std::move(e));
  }
  o.emplace_back("curve", std::move(points));
  return json::Value(std::move(o));
}

json::Value path_json(const PathAnalysis& pa, double probability,
                      int max_exp) {
  json::Object o;
  o.emplace_back("program", pa.program_name);
  o.emplace_back("input", pa.input_label);
  o.emplace_back("trace_accesses", pa.trace_accesses);
  o.emplace_back("baseline_cycles", pa.baseline_cycles);
  o.emplace_back("r_mbpta", pa.r_mbpta);
  o.emplace_back("r_tac", pa.r_tac);
  o.emplace_back("r_total", pa.r_total);
  if (pa.tac.required_runs > 0) {  // TAC ran for this path
    json::Object t;
    t.emplace_back("required_runs", pa.tac.required_runs);
    t.emplace_back("il1", tac_side_json(pa.tac.il1));
    t.emplace_back("dl1", tac_side_json(pa.tac.dl1));
    if (pa.tac.l2.required_runs > 0) {  // a random L2 was analyzed
      t.emplace_back("l2", tac_side_json(pa.tac.l2));
    }
    o.emplace_back("tac", json::Value(std::move(t)));
  } else {
    o.emplace_back("tac", json::Value());
  }
  o.emplace_back("pwcet", pwcet_json(pa.pwcet, probability, max_exp));
  return json::Value(std::move(o));
}

}  // namespace

const char* to_string(StudyMode mode) {
  switch (mode) {
    case StudyMode::kOrig: return "orig";
    case StudyMode::kPub: return "pub";
    case StudyMode::kPubTac: return "pub_tac";
    case StudyMode::kMultipath: return "multipath";
    case StudyMode::kMeasure: return "measure";
  }
  return "?";
}

StudyMode parse_study_mode(const std::string& text) {
  if (text == "orig") return StudyMode::kOrig;
  if (text == "pub") return StudyMode::kPub;
  if (text == "pub_tac") return StudyMode::kPubTac;
  if (text == "multipath") return StudyMode::kMultipath;
  if (text == "measure") return StudyMode::kMeasure;
  throw std::invalid_argument(
      "unknown study mode '" + text +
      "' (expected orig|pub|pub_tac|multipath|measure)");
}

void StudySpec::validate() const {
  const bool has_suite = !suite.empty();
  if (has_suite == randprog_seed.has_value()) {
    throw std::invalid_argument(
        "study spec must name exactly one program source: a suite benchmark "
        "or a randprog seed");
  }
  if (has_suite && suite::find(suite) == nullptr) {
    throw std::invalid_argument("unknown suite benchmark: " + suite);
  }
  if (inputs == InputSelection::kLabel) {
    if (!has_suite) {
      throw std::invalid_argument(
          "explicit input labels require a suite benchmark");
    }
    if (input_label.empty()) {
      throw std::invalid_argument("input selection by label needs a label");
    }
  }
  // Negated comparisons so NaN fails the checks too.
  if (!(config.pwcet_probability > 0.0 && config.pwcet_probability < 1.0)) {
    throw std::invalid_argument("pwcet probability must be in (0, 1)");
  }
  if (mode == StudyMode::kMeasure && measure_runs == 0) {
    throw std::invalid_argument("measure mode needs at least one run");
  }
  if (curve_max_exp < 1 || curve_max_exp > 30) {
    throw std::invalid_argument("curve_max_exp must be in [1, 30]");
  }
  if (!(config.convergence.tolerance > 0.0)) {
    throw std::invalid_argument("convergence tolerance must be positive");
  }
  // Every mode but measure converges: a max-runs below min-runs would be
  // ignored, an empty window can never hold a stable estimate (the whole
  // max-runs budget would be spent), and a zero delta is no growth step
  // (`mbcr analyze --min-runs 0 --delta 0` once never returned).
  if (mode != StudyMode::kMeasure) {
    const mbpta::ConvergenceConfig& conv = config.convergence;
    if (conv.min_runs > conv.max_runs) {
      throw std::invalid_argument(
          "convergence min-runs (" + std::to_string(conv.min_runs) +
          ") exceeds max-runs (" + std::to_string(conv.max_runs) + ")");
    }
    if (conv.window == 0) {
      throw std::invalid_argument("convergence window must be at least 1");
    }
    if (conv.delta == 0) {
      throw std::invalid_argument("convergence delta must be at least 1");
    }
  }
  config.machine.il1.validate();
  config.machine.dl1.validate();
  config.machine.l2.validate(config.machine.il1.line_bytes);
  if (config.machine.l2.enabled &&
      config.machine.dl1.line_bytes != config.machine.il1.line_bytes) {
    throw std::invalid_argument(
        "a unified L2 requires IL1 and DL1 to share one line size");
  }
}

std::string StudySpec::input_selector() const {
  switch (inputs) {
    case InputSelection::kDefault: return "default";
    case InputSelection::kAllPaths: return "all";
    case InputSelection::kLabel: return input_label;
  }
  return "default";
}

void StudySpec::set_input_selector(const std::string& selector) {
  if (selector == "default" || selector.empty()) {
    inputs = InputSelection::kDefault;
    input_label.clear();
  } else if (selector == "all") {
    inputs = InputSelection::kAllPaths;
    input_label.clear();
  } else {
    inputs = InputSelection::kLabel;
    input_label = selector;
  }
}

std::map<std::string, std::string> StudySpec::flag_spec() {
  return {
      {"suite", ""},       {"randprog", ""},
      {"mode", "pub_tac"}, {"input", "default"},
      {"seed", "42"},      {"threads", "0"},
      {"grain", "64"},     {"sets", "64"},
      {"ways", "2"},       {"line", "32"},
      {"placement", "hash"},
      {"l2-sets", "0"},    {"l2-ways", "8"},
      {"l2-policy", "random"},
      {"l2-latency", "10"},
      {"l2-placement", "hash"},
      {"mem-latency", "100"},
      {"min-runs", "300"}, {"delta", "100"},
      {"window", "5"},     {"tolerance", "0.03"},
      {"max-runs", "200000"},
      {"tac-target", "1e-09"},
      {"tac-cap", "2000000"},
      {"probe-runs", "64"},
      {"pwcet-prob", "1e-12"},
      {"runs", "10000"},   {"measure-pub", "false"},
      {"curve-exp", "15"},
      {"pub-merge", "scs"},
      {"pad-loops", "true"},
  };
}

StudySpec StudySpec::from_flags(
    const std::map<std::string, std::string>& flags) {
  static const std::map<std::string, std::string> defaults = flag_spec();
  const auto get = [&](const char* key) -> const std::string& {
    const auto it = flags.find(key);
    return it != flags.end() ? it->second : defaults.at(key);
  };

  StudySpec spec;
  spec.suite = get("suite");
  if (const std::string& rp = get("randprog"); !rp.empty()) {
    spec.randprog_seed = parse_u64("randprog", rp);
  }
  spec.mode = parse_study_mode(get("mode"));
  spec.set_input_selector(get("input"));

  spec.config.campaign.master_seed = parse_u64("seed", get("seed"));
  spec.config.campaign.threads =
      parse_uint<unsigned>("threads", get("threads"));
  spec.config.campaign.grain = parse_uint<std::size_t>("grain", get("grain"));

  const auto sets = parse_uint<std::uint32_t>("sets", get("sets"));
  const auto ways = parse_uint<std::uint32_t>("ways", get("ways"));
  const auto line = parse_u64("line", get("line"));
  const Placement placement = parse_placement(get("placement"));
  spec.config.machine.il1 = CacheConfig{sets, ways, line, placement};
  spec.config.machine.dl1 = CacheConfig{sets, ways, line, placement};
  spec.config.machine.timing.mem_latency =
      parse_u64("mem-latency", get("mem-latency"));

  // --l2-sets 0 (the default) leaves the hierarchy disabled; any other
  // value places a unified L2 (sharing the L1 line size) behind the L1s.
  // The remaining l2 flags are parsed unconditionally so malformed values
  // fail loudly, and non-default values without --l2-sets are rejected
  // rather than silently running a single-level study.
  const auto l2_sets = parse_uint<std::uint32_t>("l2-sets", get("l2-sets"));
  const auto l2_ways = parse_uint<std::uint32_t>("l2-ways", get("l2-ways"));
  const Placement l2_placement = parse_placement(get("l2-placement"));
  const L2Policy l2_policy = parse_l2_policy(get("l2-policy"));
  const std::uint64_t l2_latency = parse_u64("l2-latency", get("l2-latency"));
  if (l2_sets > 0) {
    HierarchyConfig& l2 = spec.config.machine.l2;
    l2.enabled = true;
    l2.l2 = CacheConfig{l2_sets, l2_ways, line, l2_placement};
    l2.policy = l2_policy;
    l2.latency = l2_latency;
  } else {
    const HierarchyConfig dflt;
    if (l2_ways != dflt.l2.ways || l2_placement != dflt.l2.placement ||
        l2_policy != dflt.policy || l2_latency != dflt.latency) {
      throw std::invalid_argument(
          "--l2-ways/--l2-policy/--l2-latency/--l2-placement have no effect "
          "without --l2-sets > 0");
    }
  }

  spec.config.convergence.min_runs =
      parse_uint<std::size_t>("min-runs", get("min-runs"));
  spec.config.convergence.delta =
      parse_uint<std::size_t>("delta", get("delta"));
  spec.config.convergence.window =
      parse_uint<std::size_t>("window", get("window"));
  spec.config.convergence.tolerance =
      parse_double("tolerance", get("tolerance"));
  spec.config.convergence.max_runs =
      parse_uint<std::size_t>("max-runs", get("max-runs"));

  spec.config.tac.target_miss_prob =
      parse_double("tac-target", get("tac-target"));
  spec.config.tac.max_runs_cap =
      parse_uint<std::size_t>("tac-cap", get("tac-cap"));

  spec.config.baseline_probe_runs =
      parse_uint<std::size_t>("probe-runs", get("probe-runs"));
  spec.config.pwcet_probability =
      parse_double("pwcet-prob", get("pwcet-prob"));

  spec.measure_runs = parse_uint<std::size_t>("runs", get("runs"));
  spec.measure_pub = parse_bool("measure-pub", get("measure-pub"));
  spec.curve_max_exp = parse_uint<int>("curve-exp", get("curve-exp"));

  const std::string& merge = get("pub-merge");
  if (merge == "scs") {
    spec.config.pub.merge = pub::BranchMerge::kScsInterleave;
  } else if (merge == "append") {
    spec.config.pub.merge = pub::BranchMerge::kAppendGhost;
  } else {
    throw std::invalid_argument("flag --pub-merge: expected scs|append, got '" +
                                merge + "'");
  }
  spec.config.pub.pad_loops = parse_bool("pad-loops", get("pad-loops"));
  return spec;
}

json::Value StudySpec::to_json() const {
  json::Object o;
  o.emplace_back("suite", suite.empty() ? json::Value() : json::Value(suite));
  // Seeds are 64-bit and exceed double precision past 2^53; they are
  // serialized as decimal strings so a replayed spec reproduces the exact
  // campaign.
  o.emplace_back("randprog_seed",
                 randprog_seed ? json::Value(std::to_string(*randprog_seed))
                               : json::Value());
  o.emplace_back("mode", to_string(mode));
  o.emplace_back("input", input_selector());
  {
    const auto cache_json = [](const CacheConfig& c) {
      json::Object t;
      t.reserve(4);
      t.emplace_back("sets", c.sets);
      t.emplace_back("ways", c.ways);
      t.emplace_back("line_bytes", c.line_bytes);
      t.emplace_back("placement", to_string(c.placement));
      return json::Value(std::move(t));
    };
    json::Object m;
    m.reserve(4);
    m.emplace_back("il1", cache_json(config.machine.il1));
    m.emplace_back("dl1", cache_json(config.machine.dl1));
    if (config.machine.l2.enabled) {
      json::Object l2;
      l2.reserve(6);
      l2.emplace_back("sets", config.machine.l2.l2.sets);
      l2.emplace_back("ways", config.machine.l2.l2.ways);
      l2.emplace_back("line_bytes", config.machine.l2.l2.line_bytes);
      l2.emplace_back("placement", to_string(config.machine.l2.l2.placement));
      l2.emplace_back("policy", to_string(config.machine.l2.policy));
      l2.emplace_back("latency", config.machine.l2.latency);
      m.emplace_back("l2", json::Value(std::move(l2)));
    } else {
      m.emplace_back("l2", json::Value());
    }
    json::Object timing;
    timing.reserve(3);
    timing.emplace_back("issue_cycles", config.machine.timing.issue_cycles);
    timing.emplace_back("dl1_hit_cycles", config.machine.timing.dl1_hit_cycles);
    timing.emplace_back("mem_latency", config.machine.timing.mem_latency);
    m.emplace_back("timing", json::Value(std::move(timing)));
    o.emplace_back("machine", json::Value(std::move(m)));
  }
  {
    json::Object c;
    c.reserve(8);
    c.emplace_back("master_seed", std::to_string(config.campaign.master_seed));
    c.emplace_back("threads", config.campaign.threads);
    c.emplace_back("grain", config.campaign.grain);
    // Schema v6 fixes this field: replay no longer batches, and every
    // width always gave the identical sample.
    c.emplace_back("batch", 32);
    o.emplace_back("campaign", json::Value(std::move(c)));
  }
  {
    json::Object c;
    c.reserve(8);
    c.emplace_back("min_runs", config.convergence.min_runs);
    c.emplace_back("delta", config.convergence.delta);
    c.emplace_back("window", config.convergence.window);
    c.emplace_back("tolerance", config.convergence.tolerance);
    c.emplace_back("max_runs", config.convergence.max_runs);
    o.emplace_back("convergence", json::Value(std::move(c)));
  }
  {
    json::Object c;
    c.reserve(8);
    c.emplace_back("initial_tail_fraction",
                   config.convergence.evt.initial_tail_fraction);
    c.emplace_back("min_tail_fraction",
                   config.convergence.evt.min_tail_fraction);
    c.emplace_back("min_exceedances", config.convergence.evt.min_exceedances);
    c.emplace_back("cv_band_sigmas", config.convergence.evt.cv_band_sigmas);
    o.emplace_back("evt", json::Value(std::move(c)));
  }
  {
    json::Object c;
    c.reserve(8);
    c.emplace_back("target_miss_prob", config.tac.target_miss_prob);
    c.emplace_back("impact_rel_threshold", config.tac.impact_rel_threshold);
    c.emplace_back("min_extra_misses", config.tac.min_extra_misses);
    c.emplace_back("ignore_event_prob", config.tac.ignore_event_prob);
    c.emplace_back("larger_group_margin", config.tac.larger_group_margin);
    c.emplace_back("max_runs_cap", config.tac.max_runs_cap);
    o.emplace_back("tac", json::Value(std::move(c)));
  }
  {
    json::Object c;
    c.reserve(8);
    c.emplace_back("merge", config.pub.merge == pub::BranchMerge::kScsInterleave
                                ? "scs"
                                : "append");
    c.emplace_back("pad_loops", config.pub.pad_loops);
    o.emplace_back("pub", json::Value(std::move(c)));
  }
  o.emplace_back("pwcet_probability", config.pwcet_probability);
  o.emplace_back("probe_runs", config.baseline_probe_runs);
  // Schema v4+ keeps this field: the bytecode VM is the only engine.
  o.emplace_back("executor", "vm");
  o.emplace_back("measure_runs", measure_runs);
  o.emplace_back("measure_pub", measure_pub);
  o.emplace_back("curve_max_exp", curve_max_exp);
  return json::Value(std::move(o));
}

namespace {

// JSON-to-spec readers: every member is optional and falls back to the
// in-memory default — absent *or null* (the writer serializes "no value"
// members like an empty suite as null) — which is what makes v1
// documents (no hierarchy or placement members) load unchanged. A member
// that IS present with the wrong type throws (the strict accessors'
// runtime_error, normalized to invalid_argument by from_json) —
// defaulting over it would silently turn a corrupt document into a
// half-default spec.
bool jabsent(const json::Value* v) { return v == nullptr || v->is_null(); }

double jnum(const json::Value* v, double dflt) {
  return jabsent(v) ? dflt : v->as_number();
}

/// Integer members are range-checked: `"sets": -1` or `2.5` is an error
/// naming the member, never a wrapped or truncated geometry.
template <typename T>
T jint(const json::Value* v, T dflt, const std::string& what) {
  return jabsent(v) ? dflt : json::as_integer<T>(*v, what);
}

std::string jstr(const json::Value* v, const std::string& dflt) {
  return jabsent(v) ? dflt : v->as_string();
}

bool jbool(const json::Value* v, bool dflt) {
  return jabsent(v) ? dflt : v->as_bool();
}

/// 64-bit seeds are serialized as decimal strings (doubles lose precision
/// past 2^53); accept both forms.
std::uint64_t jseed(const json::Value* v, std::uint64_t dflt) {
  if (jabsent(v)) return dflt;
  if (v->is_string()) return parse_u64("(seed)", v->as_string());
  if (v->is_number()) return json::as_integer<std::uint64_t>(*v, "seed");
  throw std::runtime_error("seed: expected a number or decimal string");
}

/// Nested config blocks: absent (or null — disabled L2 serializes as
/// null) reads as "use the defaults"; any other non-object is malformed.
const json::Value* jblock(const json::Value* v, const char* name) {
  if (v == nullptr || v->is_null()) return nullptr;
  if (!v->is_object()) {
    throw std::runtime_error(std::string(name) + ": expected an object");
  }
  return v;
}

CacheConfig jcache(const json::Value* v, CacheConfig dflt,
                   const std::string& where) {
  if (!v) return dflt;
  if (!v->is_object()) {
    throw std::runtime_error("cache config: expected an object");
  }
  dflt.sets = jint(v->find("sets"), dflt.sets, where + ".sets");
  dflt.ways = jint(v->find("ways"), dflt.ways, where + ".ways");
  dflt.line_bytes =
      jint(v->find("line_bytes"), dflt.line_bytes, where + ".line_bytes");
  if (const json::Value* p = v->find("placement")) {
    dflt.placement = parse_placement(p->as_string());
  }
  return dflt;
}

StudySpec spec_from_json_unchecked(const json::Value& doc) {
  // A whole StudyResult document carries the spec under "spec"; a bare
  // spec object is used as-is.
  const json::Value* spec_obj = doc.find("spec");
  const json::Value& s = spec_obj ? *spec_obj : doc;
  if (!s.is_object()) {
    throw std::invalid_argument("study spec JSON must be an object");
  }

  StudySpec spec;
  spec.suite = jstr(s.find("suite"), "");
  if (const json::Value* rp = s.find("randprog_seed");
      rp && !rp->is_null()) {
    spec.randprog_seed = jseed(rp, 0);
  }
  spec.mode = parse_study_mode(jstr(s.find("mode"), to_string(spec.mode)));
  spec.set_input_selector(jstr(s.find("input"), "default"));

  if (const json::Value* m = jblock(s.find("machine"), "machine")) {
    spec.config.machine.il1 =
        jcache(m->find("il1"), spec.config.machine.il1, "machine.il1");
    spec.config.machine.dl1 =
        jcache(m->find("dl1"), spec.config.machine.dl1, "machine.dl1");
    if (const json::Value* l2 = jblock(m->find("l2"), "machine.l2")) {
      spec.config.machine.l2.enabled = true;
      spec.config.machine.l2.l2 =
          jcache(l2, spec.config.machine.l2.l2, "machine.l2");
      spec.config.machine.l2.policy = parse_l2_policy(
          jstr(l2->find("policy"), to_string(spec.config.machine.l2.policy)));
      spec.config.machine.l2.latency =
          jint(l2->find("latency"), spec.config.machine.l2.latency,
               "machine.l2.latency");
    }
    if (const json::Value* t = jblock(m->find("timing"), "machine.timing")) {
      TimingParams& timing = spec.config.machine.timing;
      timing.issue_cycles = jint(t->find("issue_cycles"), timing.issue_cycles,
                                 "machine.timing.issue_cycles");
      timing.dl1_hit_cycles =
          jint(t->find("dl1_hit_cycles"), timing.dl1_hit_cycles,
               "machine.timing.dl1_hit_cycles");
      timing.mem_latency = jint(t->find("mem_latency"), timing.mem_latency,
                                "machine.timing.mem_latency");
    }
  }
  if (const json::Value* c = jblock(s.find("campaign"), "campaign")) {
    spec.config.campaign.master_seed =
        jseed(c->find("master_seed"), spec.config.campaign.master_seed);
    spec.config.campaign.threads = jint(
        c->find("threads"), spec.config.campaign.threads, "campaign.threads");
    spec.config.campaign.grain =
        jint(c->find("grain"), spec.config.campaign.grain, "campaign.grain");
    // "batch" is ignored: every width gave the identical sample, so
    // documents written with any width replay exactly.
  }
  if (const json::Value* c = jblock(s.find("convergence"), "convergence")) {
    mbpta::ConvergenceConfig& conv = spec.config.convergence;
    conv.min_runs =
        jint(c->find("min_runs"), conv.min_runs, "convergence.min_runs");
    conv.delta = jint(c->find("delta"), conv.delta, "convergence.delta");
    conv.window = jint(c->find("window"), conv.window, "convergence.window");
    conv.tolerance = jnum(c->find("tolerance"), conv.tolerance);
    conv.max_runs =
        jint(c->find("max_runs"), conv.max_runs, "convergence.max_runs");
  }
  if (const json::Value* e = jblock(s.find("evt"), "evt")) {
    mbpta::EvtConfig& evt = spec.config.convergence.evt;
    evt.initial_tail_fraction =
        jnum(e->find("initial_tail_fraction"), evt.initial_tail_fraction);
    evt.min_tail_fraction =
        jnum(e->find("min_tail_fraction"), evt.min_tail_fraction);
    evt.min_exceedances = jint(e->find("min_exceedances"),
                               evt.min_exceedances, "evt.min_exceedances");
    evt.cv_band_sigmas = jnum(e->find("cv_band_sigmas"), evt.cv_band_sigmas);
  }
  if (const json::Value* t = jblock(s.find("tac"), "tac")) {
    tac::TacConfig& tc = spec.config.tac;
    tc.target_miss_prob = jnum(t->find("target_miss_prob"),
                               tc.target_miss_prob);
    tc.impact_rel_threshold =
        jnum(t->find("impact_rel_threshold"), tc.impact_rel_threshold);
    tc.min_extra_misses = jnum(t->find("min_extra_misses"),
                               tc.min_extra_misses);
    tc.ignore_event_prob = jnum(t->find("ignore_event_prob"),
                                tc.ignore_event_prob);
    tc.larger_group_margin =
        jnum(t->find("larger_group_margin"), tc.larger_group_margin);
    tc.max_runs_cap =
        jint(t->find("max_runs_cap"), tc.max_runs_cap, "tac.max_runs_cap");
  }
  if (const json::Value* p = jblock(s.find("pub"), "pub")) {
    const std::string merge = jstr(p->find("merge"), "scs");
    if (merge == "scs") {
      spec.config.pub.merge = pub::BranchMerge::kScsInterleave;
    } else if (merge == "append") {
      spec.config.pub.merge = pub::BranchMerge::kAppendGhost;
    } else {
      throw std::invalid_argument("pub.merge: expected scs|append, got '" +
                                  merge + "'");
    }
    spec.config.pub.pad_loops = jbool(p->find("pad_loops"),
                                      spec.config.pub.pad_loops);
  }
  spec.config.pwcet_probability =
      jnum(s.find("pwcet_probability"), spec.config.pwcet_probability);
  spec.config.baseline_probe_runs =
      jint(s.find("probe_runs"), spec.config.baseline_probe_runs,
           "probe_runs");
  // v1-v3 documents have no executor; v4+ ones name "vm" or "tree". Both
  // engines are bit-identical, so either replays exactly on the VM.
  if (const std::string executor = jstr(s.find("executor"), "vm");
      executor != "vm" && executor != "tree") {
    throw std::invalid_argument("executor: expected vm or tree, got '" +
                                executor + "'");
  }
  spec.measure_runs =
      jint(s.find("measure_runs"), spec.measure_runs, "measure_runs");
  spec.measure_pub = jbool(s.find("measure_pub"), spec.measure_pub);
  spec.curve_max_exp =
      jint(s.find("curve_max_exp"), spec.curve_max_exp, "curve_max_exp");
  return spec;
}

}  // namespace

StudySpec StudySpec::from_json(const json::Value& doc) {
  try {
    return spec_from_json_unchecked(doc);
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::runtime_error& e) {
    // The JSON accessors throw runtime_error on a type mismatch; a spec
    // with the wrong shape is malformed *input*, not an internal failure,
    // so normalize to invalid_argument and the front-ends report it as a
    // usage error (exit 2) with the accessor's precise complaint.
    throw std::invalid_argument(std::string("study spec: ") + e.what());
  }
}

double StudyResult::pwcet_at(double p) const {
  double best = std::numeric_limits<double>::infinity();
  for (const PathAnalysis& a : paths) {
    best = std::min(best, a.pwcet.at(p));
  }
  return paths.empty() ? 0.0 : best;
}

std::size_t StudyResult::tightest_path(double p) const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < paths.size(); ++i) {
    if (paths[i].pwcet.at(p) < paths[best].pwcet.at(p)) best = i;
  }
  return best;
}

json::Value StudyResult::to_json() const {
  const double probability = spec.config.pwcet_probability;
  json::Object doc;
  doc.reserve(7);
  doc.emplace_back("schema", "mbcr-study-v6");
  doc.emplace_back("spec", spec.to_json());
  doc.emplace_back("program", program_name);
  {
    json::Array arr;
    for (const PathAnalysis& pa : paths) {
      arr.push_back(path_json(pa, probability, spec.curve_max_exp));
    }
    doc.emplace_back("paths", std::move(arr));
  }
  if (paths.size() > 1) {
    json::Object c;
    c.reserve(8);
    c.emplace_back("pwcet_probability", probability);
    c.emplace_back("pwcet", num_or_null(pwcet_at(probability)));
    c.emplace_back("tightest_path",
                   paths[tightest_path(probability)].input_label);
    doc.emplace_back("combined", json::Value(std::move(c)));
  }
  if (!samples.empty()) {
    json::Array arr;
    for (const MeasureSample& s : samples) {
      json::Object e;
      e.emplace_back("input", s.input_label);
      e.emplace_back("runs", s.times.size());
      e.emplace_back("mean", s.times.empty() ? 0.0 : mean(s.times));
      e.emplace_back("max", s.times.empty()
                                ? 0.0
                                : *std::max_element(s.times.begin(),
                                                    s.times.end()));
      json::Array times;
      times.reserve(s.times.size());
      for (const double t : s.times) times.emplace_back(t);
      e.emplace_back("times", std::move(times));
      arr.emplace_back(std::move(e));
    }
    doc.emplace_back("samples", std::move(arr));
  }
  doc.emplace_back("runs_executed", runs_executed);
  // v6 sweep provenance: additive, filled only by the sweep merge layer
  // (and only for partial results / explicit provenance requests), so
  // `mbcr analyze` output and a clean sweep merge stay byte-identical.
  if (sweep.has_value()) {
    doc.emplace_back("sweep", *sweep);
  }
  if (failed_shards.has_value()) {
    doc.emplace_back("failed_shards", *failed_shards);
  }
  // Both observability blocks are strictly additive: absent unless the
  // layer was enabled, so default documents stay byte-identical whether
  // or not the instrumentation is compiled in.
  if (accounting.collected) {
    json::Object acc;
    acc.reserve(4);
    acc.emplace_back("wall_s", accounting.wall_s);
    acc.emplace_back("user_cpu_s", accounting.user_cpu_s);
    acc.emplace_back("sys_cpu_s", accounting.sys_cpu_s);
    acc.emplace_back("max_rss_kb", accounting.max_rss_kb);
    doc.emplace_back("accounting", json::Value(std::move(acc)));
  }
  if (metrics.has_value()) {
    doc.emplace_back("metrics", *metrics);
  }
  return json::Value(std::move(doc));
}

void StudyResult::write_json(std::ostream& os) const {
  to_json().write(os, 2);
  os << "\n";
}

void StudyResult::write_csv(std::ostream& os) const {
  const double probability = spec.config.pwcet_probability;
  if (!samples.empty()) {
    os << "program,input,run,cycles\n";
    for (const MeasureSample& s : samples) {
      for (std::size_t i = 0; i < s.times.size(); ++i) {
        os << program_name << "," << s.input_label << "," << i << ","
           << num_text(s.times[i]) << "\n";
      }
    }
    return;
  }
  os << "program,input,trace_accesses,baseline_cycles,r_mbpta,r_tac,r_total,"
        "pwcet_probability,pwcet\n";
  for (const PathAnalysis& pa : paths) {
    os << pa.program_name << "," << pa.input_label << "," << pa.trace_accesses
       << "," << num_text(pa.baseline_cycles) << "," << pa.r_mbpta << ","
       << pa.r_tac << "," << pa.r_total << "," << num_text(probability) << ","
       << num_text(pa.pwcet.at(probability)) << "\n";
  }
}

namespace {

/// getrusage snapshot for RunAccounting deltas; zeros off-POSIX.
struct UsageSnapshot {
  double user_cpu_s = 0.0;
  double sys_cpu_s = 0.0;
  std::int64_t max_rss_kb = 0;

  static UsageSnapshot now() {
    UsageSnapshot snap;
#if defined(__unix__) || defined(__APPLE__)
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
      snap.user_cpu_s = static_cast<double>(ru.ru_utime.tv_sec) +
                        static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
      snap.sys_cpu_s = static_cast<double>(ru.ru_stime.tv_sec) +
                       static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
      snap.max_rss_kb = static_cast<std::int64_t>(ru.ru_maxrss);
    }
#endif
    return snap;
  }
};

/// The one study driver behind run_study and run_measure_slice. PUB is
/// applied once when the mode analyzes the pubbed program; every input is
/// then an independent work unit (Corollary 2) on the shared pool, at most
/// `config.campaign.threads` in flight. Each path's result is a pure function of its
/// trace and the master seed, so scheduling never changes the result, and
/// `paths`/`samples` keep input order. Measure mode takes runs
/// [first_run, first_run + count) of each input's campaign.
StudyResult execute(const StudySpec& spec, std::size_t first_run,
                    std::size_t count) {
  Resolved resolved = resolve(spec);
  const bool measure = spec.mode == StudyMode::kMeasure;
  if (measure ? spec.measure_pub : spec.mode != StudyMode::kOrig) {
    obs::Span span("pub");
    resolved.program = pub::apply_pub(resolved.program, spec.config.pub);
  }
  const bool with_tac =
      spec.mode == StudyMode::kPubTac || spec.mode == StudyMode::kMultipath;
  const Analyzer analyzer(spec.config);

  StudyResult out;
  out.spec = spec;
  out.program_name = resolved.program.name;
  const std::size_t n = resolved.inputs.size();
  if (measure) {
    out.samples.resize(n);
  } else {
    out.paths.resize(n);
  }
  ThreadPool::shared().parallel_for(
      n, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const ir::InputVector& in = resolved.inputs[i];
          if (measure) {
            out.samples[i] = {in.label, analyzer.measure(resolved.program, in,
                                                         count, first_run)};
          } else {
            out.paths[i] =
                analyzer.analyze_program(resolved.program, in, with_tac);
          }
        }
      },
      ThreadPool::helpers_for(spec.config.campaign.threads));

  for (const PathAnalysis& pa : out.paths) {
    out.runs_executed += spec.config.baseline_probe_runs +
                         std::max(pa.r_total, pa.pwcet.sample_size());
  }
  out.runs_executed += out.samples.size() * count;
  return out;
}

}  // namespace

StudyResult run_study(const StudySpec& requested) {
  obs::Span study_span("study");
  const auto wall_start = std::chrono::steady_clock::now();
  const UsageSnapshot usage_start = UsageSnapshot::now();

  StudySpec spec = requested;
  if (spec.mode == StudyMode::kMultipath &&
      spec.inputs == InputSelection::kDefault) {
    spec.inputs = InputSelection::kAllPaths;
  }
  spec.validate();
  StudyResult out = execute(spec, 0, spec.measure_runs);

  if (obs::enabled()) {
    const UsageSnapshot usage_end = UsageSnapshot::now();
    out.accounting.collected = true;
    out.accounting.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    out.accounting.user_cpu_s = usage_end.user_cpu_s - usage_start.user_cpu_s;
    out.accounting.sys_cpu_s = usage_end.sys_cpu_s - usage_start.sys_cpu_s;
    out.accounting.max_rss_kb = usage_end.max_rss_kb;
    out.metrics = obs::metrics_json();
  }
  return out;
}

StudyResult run_measure_slice(const StudySpec& spec, std::size_t first_run,
                              std::size_t count) {
  if (spec.mode != StudyMode::kMeasure) {
    throw std::invalid_argument("measure slices require mode == measure");
  }
  spec.validate();
  if (first_run > spec.measure_runs ||
      count > spec.measure_runs - first_run) {
    throw std::invalid_argument(
        "measure slice [" + std::to_string(first_run) + ", " +
        std::to_string(first_run + count) + ") exceeds measure_runs " +
        std::to_string(spec.measure_runs));
  }
  return execute(spec, first_run, count);
}

StudyResult assemble_measure_result(const StudySpec& spec,
                                    const std::vector<StudyResult>& slices) {
  if (spec.mode != StudyMode::kMeasure) {
    throw std::invalid_argument("measure slices require mode == measure");
  }
  if (slices.empty()) {
    throw std::invalid_argument(
        "assemble_measure_result needs at least one slice");
  }
  spec.validate();
  StudyResult out;
  out.spec = spec;
  out.program_name = slices.front().program_name;
  out.samples.reserve(slices.front().samples.size());
  for (const MeasureSample& s : slices.front().samples) {
    out.samples.push_back({s.input_label, {}});
  }
  for (const StudyResult& slice : slices) {
    if (slice.program_name != out.program_name ||
        slice.samples.size() != out.samples.size()) {
      throw std::invalid_argument(
          "measure slices disagree on program/input structure");
    }
    for (std::size_t i = 0; i < out.samples.size(); ++i) {
      const MeasureSample& in = slice.samples[i];
      MeasureSample& acc = out.samples[i];
      if (in.input_label != acc.input_label) {
        throw std::invalid_argument(
            "measure slices disagree on input labels: '" + in.input_label +
            "' vs '" + acc.input_label + "'");
      }
      acc.times.insert(acc.times.end(), in.times.begin(), in.times.end());
    }
  }
  for (const MeasureSample& s : out.samples) {
    out.runs_executed += s.times.size();
  }
  return out;
}

}  // namespace mbcr::core
