#include "workloads.hpp"

#include <stdexcept>

#include "suite/malardalen.hpp"

namespace studybench {

namespace {

Flags merged(Flags base, const Flags& extra) {
  for (const auto& [key, value] : extra) base[key] = value;
  return base;
}

/// All eleven kernels, default input, modes orig and pub_tac on the paper's
/// 64-set 2-way L1: one Table-2 row per kernel. Run caps keep it to a few
/// seconds; replay dominates.
Workload table2(Size size) {
  const bool tiny = size == Size::kTiny;
  const Flags caps = {{"max-runs", tiny ? "1000" : "5000"},
                      {"tac-cap", tiny ? "2000" : "100000"}};
  Workload w{"table2",
             {{"suite", "crc"}, {"max-runs", "2000"}, {"tac-cap", "20000"}},
             {}};
  for (const mbcr::suite::SuiteEntry& entry : mbcr::suite::all()) {
    const std::string kernel(entry.name);
    for (const char* mode : {"orig", "pub_tac"}) {
      w.studies.push_back({kernel + "." + mode,
                           merged({{"suite", kernel}, {"mode", mode}}, caps)});
    }
  }
  return w;
}

/// bs on every one of its 8 path inputs, analyzed concurrently (multipath
/// = pub_tac per path + Corollary 2). A 162-access trace with a large TAC
/// run count: per-run overhead and the MBPTA fits dominate.
Workload bs_paths(Size size) {
  const bool tiny = size == Size::kTiny;
  return {"bs_paths",
          {{"suite", "bs"}, {"mode", "multipath"}, {"tac-cap", "50000"},
           {"max-runs", "2000"}},
          {{"bs.multipath",
            {{"suite", "bs"},
             {"mode", "multipath"},
             {"input", "all"},
             {"max-runs", tiny ? "1000" : "20000"},
             {"tac-cap", tiny ? "5000" : "1000000"}}}}};
}

/// pub_tac on a 32-set 4-way L1 (the same 4 KB) with tight run caps, on
/// kernels whose conflict-group enumeration is costly: TAC dominates.
Workload tac_assoc(Size size) {
  const bool tiny = size == Size::kTiny;
  // max-runs below min-runs + (window - 1) * delta: convergence always
  // stops at the cap, so run counts do not depend on the seed.
  const Flags geometry = {{"sets", "32"}, {"ways", "4"}, {"mode", "pub_tac"},
                          {"max-runs", "500"},
                          {"tac-cap", tiny ? "2000" : "5000"}};
  Workload w{"tac_assoc",
             merged(geometry, {{"suite", "crc"}, {"tac-cap", "20000"}}), {}};
  // Tiny swaps in kernels whose 4-way TAC takes milliseconds.
  for (const char* kernel : tiny ? std::vector<const char*>{"crc", "jfdct"}
                                 : std::vector<const char*>{"edn", "ns"}) {
    w.studies.push_back({std::string(kernel) + ".pub_tac.4way",
                         merged(geometry, {{"suite", kernel}})});
  }
  return w;
}

/// Fixed-size measure campaigns behind a 256-set 8-way unified L2 under
/// both policies: the two-level replay paths `mbcr sweep` slices run, with
/// no convergence, TAC or EVT. One small pub_tac study on the LRU L2 keeps
/// every per-layer timer live on this workload too.
Workload hier_measure(Size size) {
  const bool tiny = size == Size::kTiny;
  const Flags l2 = {{"l2-sets", "256"}, {"l2-ways", "8"}};
  Workload w{"hier_measure",
             merged(l2, {{"suite", "crc"}, {"mode", "measure"},
                         {"runs", "20000"}}),
             {}};
  for (const char* kernel : {"crc", "edn", "matmult"}) {
    for (const char* policy : {"random", "lru"}) {
      w.studies.push_back(
          {std::string(kernel) + ".measure.l2_" + policy,
           merged(l2, {{"suite", kernel},
                       {"mode", "measure"},
                       {"l2-policy", policy},
                       {"runs", tiny ? "500" : "40000"}})});
    }
  }
  w.studies.push_back({"crc.pub_tac.l2_lru",
                       merged(l2, {{"suite", "crc"},
                                   {"mode", "pub_tac"},
                                   {"l2-policy", "lru"},
                                   {"max-runs", tiny ? "1000" : "2000"},
                                   {"tac-cap", tiny ? "2000" : "10000"}})});
  return w;
}

}  // namespace

const char* to_string(Size size) {
  return size == Size::kTiny ? "tiny" : "full";
}

Size parse_size(const std::string& text) {
  if (text == "full") return Size::kFull;
  if (text == "tiny") return Size::kTiny;
  throw std::invalid_argument("--size: expected full|tiny, got '" + text +
                              "'");
}

std::vector<Workload> all_workloads(Size size) {
  return {table2(size), bs_paths(size), tac_assoc(size), hier_measure(size)};
}

mbcr::core::StudySpec make_spec(const Flags& flags, std::uint64_t seed) {
  Flags full = flags;
  full["seed"] = std::to_string(seed);
  full["threads"] = std::to_string(kThreads);
  mbcr::core::StudySpec spec = mbcr::core::StudySpec::from_flags(full);
  spec.validate();
  return spec;
}

}  // namespace studybench
