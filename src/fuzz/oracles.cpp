#include "fuzz/oracles.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "core/study.hpp"
#include "ir/bytecode.hpp"
#include "ir/interp.hpp"
#include "ir/verify.hpp"
#include "ir/vm.hpp"
#include "mbpta/convergence.hpp"
#include "mbpta/pwcet.hpp"
#include "platform/campaign.hpp"
#include "pub/pub_transform.hpp"
#include "pub/verify.hpp"
#include "tac/impact.hpp"
#include "tac/runs.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace mbcr::fuzz {

namespace {

std::string flavor_name(const platform::MachineConfig& cfg) {
  std::string name = cfg.l2.enabled
                         ? (cfg.l2.policy == L2Policy::kRandom ? "l2-random"
                                                               : "l2-lru")
                         : "l1-only";
  name += "/";
  name += to_string(cfg.il1.placement);
  return name;
}

/// One functional execution per input, shared by the replay-family checks.
struct InputTrace {
  const ir::InputVector* input;
  ir::ExecResult exec;
  CompactTrace compact;
};

std::vector<InputTrace> trace_inputs(const FuzzCaseData& data) {
  std::vector<InputTrace> out;
  out.reserve(data.inputs.size());
  for (const ir::InputVector& in : data.inputs) {
    InputTrace t;
    t.input = &in;
    t.exec = ir::lower_and_execute(data.program, in);
    t.compact =
        CompactTrace::from(t.exec.trace, data.machine.il1.line_bytes);
    out.push_back(std::move(t));
  }
  return out;
}

OracleOutcome fail(std::string detail) { return {false, std::move(detail)}; }

// --- oracle 1: fast replay == generic-cache reference ---------------------

OracleOutcome oracle_replay(const FuzzCaseData& data, bool inject_fault) {
  const std::vector<InputTrace> traced = trace_inputs(data);
  for (const platform::MachineConfig& cfg : flavor_grid(data.machine)) {
    const platform::Machine machine(cfg);
    for (const InputTrace& t : traced) {
      for (const std::uint64_t seed : data.run_seeds) {
        std::uint64_t fast = machine.run_once(t.compact, seed);
        if (inject_fault) fast += 1;  // harness self-test perturbation
        const std::uint64_t ref = machine.run_once_reference(t.exec.trace, seed);
        if (fast != ref) {
          std::ostringstream ss;
          ss << "input " << t.input->label << " flavor " << flavor_name(cfg)
             << " seed " << seed << ": run_once " << fast << " != reference "
             << ref;
          return fail(ss.str());
        }
      }
    }
  }
  return {};
}

// --- oracle 2: streamed == one-shot, engine knobs are pure ----------------

OracleOutcome oracle_campaign(const FuzzCaseData& data, bool) {
  const std::vector<InputTrace> traced = trace_inputs(data);
  const std::vector<platform::MachineConfig> grid = flavor_grid(data.machine);
  constexpr std::size_t kRuns = 96;
  // L1-only and random-L2 hash flavors: one per replay loop family.
  for (const platform::MachineConfig& mcfg : {grid[0], grid[1]}) {
    const platform::Machine machine(mcfg);
    for (const InputTrace& t : traced) {
      platform::CampaignConfig base;
      base.master_seed = data.case_seed;
      const std::vector<double> want =
          platform::run_campaign(machine, t.compact, kRuns, base);

      platform::CampaignSampler sampler(machine, t.compact, base);
      std::vector<double> streamed;
      for (const std::size_t chunk : {1, 7, 25, 63}) {
        sampler.append_to(streamed, chunk);
      }
      if (streamed != want) {
        return fail("input " + t.input->label + " flavor " +
                    flavor_name(mcfg) + ": streamed campaign != one-shot");
      }

      struct Variant {
        const char* what;
        unsigned threads;
        std::size_t grain;
      };
      for (const Variant& v : {Variant{"threads=1", 1, 64},
                               Variant{"grain=5", 0, 5},
                               Variant{"grain=48", 0, 48}}) {
        platform::CampaignConfig cfg = base;
        cfg.threads = v.threads;
        cfg.grain = v.grain;
        if (platform::run_campaign(machine, t.compact, kRuns, cfg) != want) {
          return fail("input " + t.input->label + " flavor " +
                      flavor_name(mcfg) + ": campaign not invariant under " +
                      v.what);
        }
      }
    }
  }
  return {};
}

// --- oracle 3: PUB subsequence invariant on every pubbed path -------------

OracleOutcome oracle_pub(const FuzzCaseData& data, bool) {
  const ir::Program pubbed = pub::apply_pub(data.program);
  for (const ir::InputVector& in : data.inputs) {
    const pub::PubCheckResult res =
        pub::check_pub_invariants(data.program, pubbed, in);
    if (!res.tokens_are_subsequence) {
      return fail("input " + in.label +
                  ": original tokens not a subsequence of pubbed tokens (" +
                  res.detail + ")");
    }
    if (!res.state_preserved) {
      return fail("input " + in.label +
                  ": pubbed program changed architectural state (" +
                  res.detail + ")");
    }
  }
  return {};
}

// --- oracle 4: TAC sanity + architectural-ceiling conservatism ------------

/// Empty string = the side's events are sane.
std::string check_tac_events(const tac::TacSequenceResult& side,
                             const char* which, const tac::TacConfig& cfg) {
  for (const tac::TacEvent& ev : side.events) {
    if (!(ev.probability > 0.0 && ev.probability <= 1.0)) {
      return std::string(which) + ": event probability out of (0, 1]";
    }
    if (ev.required_runs < 1 || ev.required_runs > cfg.max_runs_cap) {
      return std::string(which) + ": event required_runs outside [1, cap]";
    }
    if (side.required_runs < ev.required_runs) {
      return std::string(which) + ": side required_runs below an event's";
    }
  }
  return {};
}

/// Holds `tac::group_extra_misses` to its reference, `project_group` +
/// `expected_misses_single_set` (a one-set `RandomCache`), on groups of
/// one side's lines at W = 2, 4 and 8: the hottest W+1 lines (they
/// interleave most) and random W+1 and W+2 groups. Empty when every group
/// agrees.
std::string check_group_impacts(const MemTrace& trace, bool instruction_side,
                                Addr line_bytes, Xoshiro256& rng) {
  const tac::ReuseProfile profile =
      tac::profile_sequence(trace.line_sequence(instruction_side, line_bytes));
  const std::size_t n = profile.lines.size();
  if (n == 0) return {};
  std::vector<std::size_t> hottest(n);
  for (std::size_t i = 0; i < n; ++i) hottest[i] = i;
  std::stable_sort(hottest.begin(), hottest.end(),
                   [&](std::size_t a, std::size_t b) {
                     return profile.lines[a].count > profile.lines[b].count;
                   });
  constexpr std::uint32_t kTrials = 8;
  for (const std::uint32_t ways : {2u, 4u, 8u}) {
    for (int pick = 0; pick < 3; ++pick) {
      const std::size_t k = std::min<std::size_t>(n, ways + 1 + (pick == 2));
      std::vector<std::size_t> group = hottest;
      if (pick > 0) {  // k distinct lines, uniformly (partial shuffle)
        for (std::size_t i = 0; i < k; ++i) {
          std::swap(group[i],
                    group[i + rng.uniform(static_cast<std::uint32_t>(n - i))]);
        }
      }
      group.resize(k);
      const std::uint64_t seed = rng();
      const double fast =
          tac::group_extra_misses(profile, group, ways, seed, kTrials);
      const double ref =
          std::max(0.0, tac::expected_misses_single_set(
                            tac::project_group(profile, group), ways, seed,
                            kTrials) -
                            static_cast<double>(k));
      if (fast != ref) {
        std::ostringstream ss;
        ss << (instruction_side ? "il1" : "dl1") << " group of " << k
           << " lines at W=" << ways << ": group_extra_misses " << fast
           << " != reference " << ref;
        return ss.str();
      }
    }
  }
  return {};
}

OracleOutcome oracle_tac(const FuzzCaseData& data, bool) {
  const std::vector<InputTrace> traced = trace_inputs(data);
  const std::vector<platform::MachineConfig> grid = flavor_grid(data.machine);
  const tac::TacConfig tac_cfg;  // the paper's defaults
  const double mem_latency =
      static_cast<double>(data.machine.timing.mem_latency);

  // TAC's conflict-group enumeration is exponential in associativity
  // (group size k = W+1): the analysis geometry clamps to the paper's
  // 2-way platform so every case stays polynomial. The replay-conservatism
  // check below still uses the case's real geometry.
  const auto clamp_ways = [](CacheConfig cfg) {
    cfg.ways = std::min<std::uint32_t>(cfg.ways, 2);
    return cfg;
  };
  const CacheConfig tac_il1 = clamp_ways(grid[0].il1);
  const CacheConfig tac_dl1 = clamp_ways(grid[0].dl1);

  Xoshiro256 group_rng(mix64(data.case_seed, 0x1ac7));
  for (const InputTrace& t : traced) {
    // The impact kernel costs per group, not per enumeration, so these
    // checks run at W = 4 and 8 too, past the clamp above.
    for (const bool instruction_side : {true, false}) {
      const std::string detail = check_group_impacts(
          t.exec.trace, instruction_side,
          (instruction_side ? grid[0].il1 : grid[0].dl1).line_bytes,
          group_rng);
      if (!detail.empty()) {
        return fail("input " + t.input->label + " " + detail);
      }
    }

    // A cheap probe campaign anchors TAC's relative impact threshold, like
    // the analyzer's (exact value is irrelevant to the invariants checked).
    const platform::Machine probe_machine(grid[0]);
    platform::CampaignConfig probe_cfg;
    probe_cfg.master_seed = data.case_seed;
    const std::vector<double> probe =
        platform::run_campaign(probe_machine, t.compact, 16, probe_cfg);
    double baseline = 0;
    for (const double x : probe) baseline += x;
    baseline /= static_cast<double>(probe.size());

    // TAC must analyze cleanly both without and with a random L2.
    for (const bool with_l2 : {false, true}) {
      HierarchyConfig l2 = data.machine.l2;
      l2.enabled = with_l2;
      l2.policy = L2Policy::kRandom;
      l2.l2 = clamp_ways(l2.l2);
      const tac::TacTraceResult res =
          tac::analyze_trace(t.exec.trace, tac_il1, tac_dl1, baseline,
                             mem_latency, tac_cfg, l2);
      const std::pair<const tac::TacSequenceResult*, const char*> sides[] = {
          {&res.il1, "il1"}, {&res.dl1, "dl1"}, {&res.l2, "l2"}};
      for (const auto& [side, which] : sides) {
        const std::string detail = check_tac_events(*side, which, tac_cfg);
        if (!detail.empty()) {
          return fail("input " + t.input->label + " (l2=" +
                      (with_l2 ? "random" : "off") + ") " + detail);
        }
      }
      const std::size_t side_max = std::max(
          {res.il1.required_runs, res.dl1.required_runs, res.l2.required_runs});
      if (res.required_runs < side_max) {
        return fail("input " + t.input->label +
                    ": trace required_runs below a side's");
      }
    }

    // Conservatism: the all-miss architectural ceiling (the analyzer's
    // pWCET clamp) must upper-bound every latency the platform can
    // actually produce, for every flavor and sampled seed.
    for (const platform::MachineConfig& cfg : grid) {
      const platform::Machine machine(cfg);
      const std::uint64_t ceiling = machine.all_miss_cycles(t.exec.trace);
      for (const std::uint64_t seed : data.run_seeds) {
        const std::uint64_t observed = machine.run_once(t.compact, seed);
        if (observed > ceiling) {
          std::ostringstream ss;
          ss << "input " << t.input->label << " flavor " << flavor_name(cfg)
             << " seed " << seed << ": observed latency " << observed
             << " exceeds the all-miss ceiling " << ceiling;
          return fail(ss.str());
        }
      }
    }
  }
  return {};
}

// --- oracle 5: Study JSON round trips are text-identical ------------------

OracleOutcome oracle_study_json(const FuzzCaseData& data, bool) {
  core::StudySpec spec;
  spec.randprog_seed = data.case_seed;
  spec.mode = core::StudyMode::kMeasure;
  spec.measure_runs = std::max<std::size_t>(4, data.run_seeds.size());
  spec.config.machine = data.machine;
  spec.config.machine.l2.enabled = true;  // exercise the v2+ l2 surface
  spec.config.machine.l2.policy = L2Policy::kRandom;
  spec.config.campaign.master_seed = data.case_seed;

  const std::string spec_text = spec.to_json().dump(2);
  const core::StudySpec reread =
      core::StudySpec::from_json(json::parse(spec_text));
  if (reread.to_json().dump(2) != spec_text) {
    return fail("StudySpec JSON round trip is not text-identical");
  }

  const core::StudyResult result = core::run_study(spec);
  const std::string doc_text = result.to_json().dump(2);
  const json::Value reparsed = json::parse(doc_text);
  if (reparsed.dump(2) != doc_text) {
    return fail("StudyResult document does not re-serialize identically");
  }
  // A result document is a replayable work unit: the spec it carries must
  // read back to the exact same spec text.
  if (core::StudySpec::from_json(reparsed).to_json().dump(2) != spec_text) {
    return fail("spec extracted from the result document differs");
  }
  return {};
}

// --- oracle 6: bytecode VM == tree-walking interpreter --------------------

/// One engine's observation of a run: either a full ExecResult or the
/// ExecError text it raised. The two engines must agree on *which* of the
/// two happened, and on every byte of it.
struct EngineRun {
  bool threw = false;
  std::string error;
  ir::ExecResult result;
};

template <typename Fn>
EngineRun observe(Fn&& fn) {
  EngineRun run;
  try {
    run.result = fn();
  } catch (const ir::ExecError& e) {
    run.threw = true;
    run.error = e.what();
  }
  return run;
}

/// Empty string = bit-identical; otherwise the first differing field.
std::string diff_exec(const ir::ExecResult& tree, const ir::ExecResult& vm) {
  if (vm.trace.accesses != tree.trace.accesses) {
    const std::size_t n =
        std::min(tree.trace.accesses.size(), vm.trace.accesses.size());
    std::size_t i = 0;
    while (i < n && vm.trace.accesses[i] == tree.trace.accesses[i]) ++i;
    std::ostringstream ss;
    ss << "traces diverge at access " << i << " (tree "
       << tree.trace.accesses.size() << " entries, vm "
       << vm.trace.accesses.size() << ")";
    return ss.str();
  }
  if (vm.tokens != tree.tokens) return "token streams differ";
  if (!(vm.path == tree.path)) {
    return "path signatures differ (tree " + tree.path.to_string() + ", vm " +
           vm.path.to_string() + ")";
  }
  if (vm.leaf_steps != tree.leaf_steps) {
    return "leaf_steps " + std::to_string(vm.leaf_steps) + " != tree " +
           std::to_string(tree.leaf_steps);
  }
  if (vm.env.scalars != tree.env.scalars || vm.env.arrays != tree.env.arrays) {
    return "final environments differ";
  }
  return {};
}

OracleOutcome oracle_vm(const FuzzCaseData& data, bool) {
  const ir::Program pubbed = pub::apply_pub(data.program);
  // The pubbed variant is what exercises ghost/pad lowering — randprog
  // programs carry no ghosts of their own.
  const std::pair<const char*, const ir::Program*> variants[] = {
      {"original", &data.program}, {"pubbed", &pubbed}};
  for (const auto& [which, prog] : variants) {
    const ir::Linked linked = ir::lower(*prog);
    const ir::BytecodeProgram bytecode = ir::compile(*prog, linked);
    for (const ir::InputVector& in : data.inputs) {
      const EngineRun tree = observe(
          [&] { return ir::execute_tree(*prog, linked, in); });
      const EngineRun vm =
          observe([&] { return ir::vm::run(bytecode, in); });
      const std::string where =
          "input " + in.label + " (" + which + " program): ";
      if (tree.threw != vm.threw) {
        return fail(where + (vm.threw ? "vm threw ExecError \"" + vm.error +
                                            "\" but the tree-walker succeeded"
                                      : "tree-walker threw ExecError \"" +
                                            tree.error +
                                            "\" but the vm succeeded"));
      }
      if (tree.threw) {
        if (tree.error != vm.error) {
          return fail(where + "ExecError texts differ (tree \"" + tree.error +
                      "\", vm \"" + vm.error + "\")");
        }
        continue;
      }
      const std::string detail = diff_exec(tree.result, vm.result);
      if (!detail.empty()) return fail(where + detail);
    }
  }
  return {};
}

// --- oracle 7: the verifier accepts every compiled program ---------------

OracleOutcome oracle_verify(const FuzzCaseData& data, bool) {
  const ir::Program pubbed = pub::apply_pub(data.program);
  const std::pair<const char*, const ir::Program*> variants[] = {
      {"original", &data.program}, {"pubbed", &pubbed}};
  for (const auto& [which, prog] : variants) {
    const ir::BytecodeProgram bytecode = ir::compile(*prog, ir::lower(*prog));
    const std::string where = std::string("(") + which + " program): ";
    // randprog and the PUB transform emit only well-formed bytecode, and
    // the walk's exact high-water mark must match the compiler's.
    const ir::VerifyResult facts = ir::verify(bytecode);
    if (!facts.ok()) {
      return fail(where + "verifier rejected compiled bytecode: " +
                  facts.describe());
    }
    if (facts.computed_max_stack != bytecode.max_stack) {
      return fail(where + "computed max_stack " +
                  std::to_string(facts.computed_max_stack) + " != declared " +
                  std::to_string(bytecode.max_stack));
    }
  }
  return {};
}

// --- oracle 8: EVT/convergence — incremental refit == from-scratch fit ----

/// Exact comparison including NaN: both sides run the same numeric code,
/// so any divergence — even in NaN payloads — is a real bug.
bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool tail_fits_equal(const mbpta::ExpTailFit& a, const mbpta::ExpTailFit& b) {
  return bits_equal(a.threshold, b.threshold) && bits_equal(a.rate, b.rate) &&
         bits_equal(a.zeta, b.zeta) && a.n_exceedances == b.n_exceedances &&
         a.n_total == b.n_total && bits_equal(a.cv, b.cv) &&
         a.cv_accepted == b.cv_accepted;
}

/// Empty when `curve`'s counted fit equals the composition of the free
/// functions that each sort their own copy of `sample`, field by field.
std::string counted_fit_mismatch(const mbpta::PwcetCurve& curve,
                                 std::span<const double> sample,
                                 const mbpta::EvtConfig& evt) {
  if (!tail_fits_equal(curve.tail(),
                       mbpta::fit_exponential_tail(sample, evt))) {
    return "tail() != fit_exponential_tail";
  }
  const mbpta::IidReport& iid = curve.iid();
  const mbpta::IidReport want = mbpta::check_iid(sample);
  if (!bits_equal(iid.runs_test_p, want.runs_test_p)) {
    return "iid().runs_test_p";
  }
  if (!bits_equal(iid.ljung_box_p, want.ljung_box_p)) {
    return "iid().ljung_box_p";
  }
  if (!bits_equal(iid.ks_split_p, want.ks_split_p)) return "iid().ks_split_p";
  if (iid.independent != want.independent ||
      iid.identically_distributed != want.identically_distributed) {
    return "iid() verdicts";
  }
  return {};
}

OracleOutcome oracle_evt(const FuzzCaseData& data, bool) {
  const std::vector<InputTrace> traced = trace_inputs(data);
  if (traced.empty()) return {};
  const std::vector<platform::MachineConfig> grid = flavor_grid(data.machine);
  // A small bounded protocol: the checks below are estimator *identities*
  // (incremental == from-scratch), not an actual certification, so a few
  // hundred runs per flavor suffice and keep the oracle cheap.
  mbpta::ConvergenceConfig cc;
  cc.min_runs = 60;
  cc.delta = 30;
  cc.window = 4;
  cc.tolerance = 0.05;
  cc.probability = 1e-9;
  cc.max_runs = 240;
  // One flavor per replay family (the campaign oracle already sweeps the
  // engine knobs); the first input bounds the cost.
  const InputTrace& t = traced.front();
  for (const platform::MachineConfig& mcfg : {grid[0], grid[4]}) {
    const platform::Machine machine(mcfg);
    const std::string at =
        "input " + t.input->label + " flavor " + flavor_name(mcfg) + ": ";
    platform::CampaignConfig camp;
    camp.master_seed = data.case_seed;

    platform::CampaignSampler stream(machine, t.compact, camp);
    std::vector<std::size_t> grown_to;  // sample size after each growth
    const mbpta::ConvergenceResult inc = mbpta::converge_stream(
        [&](std::vector<double>& sample, std::size_t count) {
          stream.append_to(sample, count);
          grown_to.push_back(sample.size());
        },
        cc);
    if (inc.sample.empty() || inc.estimates.empty()) {
      return fail(at + "convergence produced an empty sample or estimate "
                       "stream");
    }
    if (grown_to.size() != inc.estimates.size()) {
      return fail(at + std::to_string(inc.estimates.size()) +
                  " refits for " + std::to_string(grown_to.size()) +
                  " sample growths");
    }

    // Every incremental (counted) refit must equal the sorting probe and a
    // fresh fit on the prefix of the sample it saw, and that fit's
    // counted i.i.d. report and tail must equal the independently sorting
    // free functions.
    for (std::size_t i = 0; i < inc.estimates.size(); ++i) {
      const std::vector<double> prefix(
          inc.sample.begin(),
          inc.sample.begin() + static_cast<std::ptrdiff_t>(grown_to[i]));
      const double sorted_probe = mbpta::pwcet_probe_sorted(
          sorted_copy(prefix), cc.probability, cc.evt);
      if (!bits_equal(sorted_probe, inc.estimates[i])) {
        std::ostringstream ss;
        ss << at << "incremental refit " << i << " = " << inc.estimates[i]
           << " != pwcet_probe_sorted " << sorted_probe << " on "
           << grown_to[i] << " runs";
        return fail(ss.str());
      }
      const mbpta::PwcetCurve curve(prefix, cc.evt);
      const std::string mismatch =
          counted_fit_mismatch(curve, prefix, cc.evt);
      if (!mismatch.empty()) {
        return fail(at + "PwcetCurve on " + std::to_string(grown_to[i]) +
                    " runs: " + mismatch + " differs from the free "
                    "functions");
      }
      const double want = curve.at(cc.probability);
      if (!bits_equal(want, inc.estimates[i])) {
        std::ostringstream ss;
        ss << at << "incremental refit " << i << " = " << inc.estimates[i]
           << " != from-scratch fit " << want << " on " << grown_to[i]
           << " runs";
        return fail(ss.str());
      }
    }
    // The sorted-span tail fit is bit-identical to its unsorted twin, field
    // by field.
    if (!tail_fits_equal(
            mbpta::fit_exponential_tail(inc.sample, cc.evt),
            mbpta::fit_exponential_tail_sorted(sorted_copy(inc.sample),
                                               cc.evt))) {
      return fail(at + "fit_exponential_tail_sorted differs from the "
                       "unsorted fit");
    }
  }
  return {};
}

constexpr Oracle kOracles[] = {
    {"replay", "fast run_once == generic-cache reference across the "
               "hierarchy-flavor grid",
     oracle_replay},
    {"campaign", "streamed == one-shot; threads/grain are pure knobs",
     oracle_campaign},
    {"pub", "PUB subsequence + state preservation on every input",
     oracle_pub},
    {"tac", "TAC event sanity, group impacts == the full projection "
            "replay at W = 2, 4, 8, and all-miss ceiling conservatism",
     oracle_tac},
    {"study_json", "StudySpec/StudyResult JSON round-trip text identity",
     oracle_study_json},
    {"vm", "bytecode VM bit-identical to the tree-walking interpreter on "
           "the original and pubbed programs",
     oracle_vm},
    {"verify", "static verifier accepts the compiled original and pubbed "
               "bytecode with an exact max_stack",
     oracle_verify},
    {"evt", "EVT/convergence estimator identities: every incremental refit "
            "== sorted probe and fresh fit on its prefix, the counted "
            "fit's iid and tail == the sorting free functions, sorted-span "
            "== unsorted",
     oracle_evt},
};

}  // namespace

std::span<const Oracle> all_oracles() { return kOracles; }

const Oracle* find_oracle(std::string_view name) {
  for (const Oracle& o : kOracles) {
    if (name == o.name) return &o;
  }
  return nullptr;
}

std::vector<platform::MachineConfig> flavor_grid(
    const platform::MachineConfig& base) {
  std::vector<platform::MachineConfig> out;
  for (const Placement placement : {Placement::kHash, Placement::kModulo}) {
    platform::MachineConfig cfg = base;
    cfg.il1.placement = placement;
    cfg.dl1.placement = placement;
    cfg.l2.l2.placement = placement;
    cfg.l2.enabled = false;
    out.push_back(cfg);
    cfg.l2.enabled = true;
    cfg.l2.policy = L2Policy::kRandom;
    out.push_back(cfg);
    cfg.l2.policy = L2Policy::kLru;
    out.push_back(cfg);
  }
  return out;
}

}  // namespace mbcr::fuzz
