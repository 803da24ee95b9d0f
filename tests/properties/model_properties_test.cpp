// Cross-module property sweeps (parameterized): the probabilistic cache
// model, TAC's arithmetic and the platform replay must satisfy their
// defining invariants across cache geometries, not just the paper's one.
#include <gtest/gtest.h>

#include <cmath>

#include "cache/random_cache.hpp"
#include "ir/interp.hpp"
#include "platform/campaign.hpp"
#include "suite/malardalen.hpp"
#include "mbpta/evt.hpp"
#include "pub/verify.hpp"
#include "tac/runs.hpp"

namespace mbcr {
namespace {

struct Geometry {
  std::uint32_t sets;
  std::uint32_t ways;
};

std::string geo_name(const ::testing::TestParamInfo<Geometry>& info) {
  return "S" + std::to_string(info.param.sets) + "W" +
         std::to_string(info.param.ways);
}

class GeometryProperty : public ::testing::TestWithParam<Geometry> {
protected:
  CacheConfig config() const {
    return CacheConfig{GetParam().sets, GetParam().ways, 32};
  }
};

TEST_P(GeometryProperty, CoMappingProbabilityIsOneOverS) {
  // The foundation of TAC's model, for every geometry: two specific lines
  // share a set with probability 1/S.
  const CacheConfig cfg = config();
  int together = 0;
  const int seeds = 40000;
  for (int seed = 0; seed < seeds; ++seed) {
    RandomCache cache(cfg, static_cast<std::uint64_t>(seed), 0);
    if (cache.set_of_line(3) == cache.set_of_line(1009)) ++together;
  }
  const double p = static_cast<double>(together) / seeds;
  const double expect = 1.0 / cfg.sets;
  EXPECT_NEAR(p, expect, 5.0 * std::sqrt(expect * (1 - expect) / seeds));
}

TEST_P(GeometryProperty, TacWorkedArithmeticGeneralizes) {
  // k = W+1 lines round-robin: exactly one conflict class with
  // p = (1/S)^W and R = ln(1e-9)/ln(1-p), for every geometry.
  const CacheConfig cfg = config();
  std::vector<Addr> seq;
  for (int r = 0; r < 600; ++r) {
    for (std::uint32_t l = 0; l <= cfg.ways; ++l) seq.push_back(l + 1);
  }
  tac::TacConfig tcfg;
  tcfg.conflict.extra_group_sizes = {0};
  tcfg.max_runs_cap = 100'000'000;
  const auto res =
      tac::analyze_sequence(seq, cfg, 1.0e6, 100.0, tcfg);
  const double p =
      std::pow(1.0 / static_cast<double>(cfg.sets), cfg.ways);
  if (p < tcfg.ignore_event_prob) {
    EXPECT_TRUE(res.events.empty());
    return;
  }
  ASSERT_EQ(res.events.size(), 1u);
  EXPECT_NEAR(res.events[0].probability, p, p * 1e-9);
  EXPECT_EQ(res.required_runs,
            tac::runs_for_probability(p, tcfg.target_miss_prob));
}

TEST_P(GeometryProperty, FastReplayMatchesReferenceEverywhere) {
  const auto b = suite::make_bs();
  const MemTrace trace =
      ir::lower_and_execute(b.program, b.default_input).trace;
  const CompactTrace compact = CompactTrace::from(trace);
  platform::MachineConfig mcfg;
  mcfg.il1 = config();
  mcfg.dl1 = config();
  const platform::Machine machine(mcfg);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    EXPECT_EQ(machine.run_once(compact, seed),
              machine.run_once_reference(trace, seed));
  }
}

TEST_P(GeometryProperty, CampaignDeterminismEverywhere) {
  const auto b = suite::make_fir();
  const CompactTrace trace = CompactTrace::from(
      ir::lower_and_execute(b.program, b.default_input).trace);
  platform::MachineConfig mcfg;
  mcfg.il1 = config();
  mcfg.dl1 = config();
  const platform::Machine machine(mcfg);
  // Scheduling invariance across worker counts: the pool engine on
  // dedicated 1- and 16-worker pools must reproduce a plain serial loop of
  // run_once (the determinism contract).
  platform::CampaignConfig uncapped;  // threads = 0: workers really claim
  uncapped.grain = 16;
  std::vector<double> want;
  for (std::size_t i = 0; i < 500; ++i) {
    want.push_back(static_cast<double>(
        machine.run_once(trace, mix64(i, uncapped.master_seed))));
  }
  for (unsigned workers : {1u, 16u}) {
    ThreadPool pool(workers);
    std::vector<double> pooled(500);
    platform::run_campaign_into(machine, trace, 500, pooled.data(), uncapped,
                                0, &pool);
    EXPECT_EQ(want, pooled) << "pool workers " << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GeometryProperty,
                         ::testing::Values(Geometry{8, 2}, Geometry{8, 4},
                                           Geometry{16, 1}, Geometry{32, 4},
                                           Geometry{64, 2}, Geometry{128, 2},
                                           Geometry{256, 8}),
                         geo_name);

// --- EVT property sweep over synthetic rates ------------------------------

class EvtRateProperty : public ::testing::TestWithParam<int> {};

TEST_P(EvtRateProperty, ExponentialFitRecoversRate) {
  const double rate = std::pow(10.0, -GetParam());  // 1e-1 .. 1e-4
  Xoshiro256 rng(99 + GetParam());
  std::vector<double> xs;
  for (int i = 0; i < 60000; ++i) {
    xs.push_back(500.0 - std::log(1.0 - rng.uniform01()) / rate);
  }
  const mbpta::ExpTailFit fit = mbpta::fit_exponential_tail(xs);
  EXPECT_NEAR(fit.rate, rate, 0.12 * rate);
  // Deep quantile tracks the analytic value of the shifted exponential.
  const double truth = 500.0 - std::log(1e-9) / rate;
  EXPECT_NEAR(fit.quantile(1e-9), truth, 0.15 * truth);
}

INSTANTIATE_TEST_SUITE_P(Rates, EvtRateProperty, ::testing::Range(1, 5));

// --- PUB invariant across merge strategies and benchmarks -----------------

using StrategyCase = std::tuple<std::string, pub::BranchMerge>;

class PubStrategyProperty
    : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(PubStrategyProperty, InvariantsHold) {
  const auto& [name, merge] = GetParam();
  const auto b = suite::make_benchmark(name);
  pub::PubOptions opt;
  opt.merge = merge;
  for (const auto& in :
       b.path_inputs.empty()
           ? std::vector<ir::InputVector>{b.default_input}
           : b.path_inputs) {
    const auto res = pub::check_pub(b.program, in, opt);
    EXPECT_TRUE(res.ok()) << b.name << " " << in.label << ": " << res.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cross, PubStrategyProperty,
    ::testing::Combine(::testing::Values("bs", "cnt", "fir", "janne", "crc"),
                       ::testing::Values(pub::BranchMerge::kScsInterleave,
                                         pub::BranchMerge::kAppendGhost)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == pub::BranchMerge::kScsInterleave
                  ? "_scs"
                  : "_append");
    });

}  // namespace
}  // namespace mbcr
