#include "platform/campaign.hpp"

#include <gtest/gtest.h>

#include "ir/interp.hpp"
#include "mbpta/iid.hpp"
#include "suite/malardalen.hpp"

namespace mbcr::platform {
namespace {

CompactTrace test_trace() {
  const auto b = suite::make_bs();
  return CompactTrace::from(
      ir::lower_and_execute(b.program, b.default_input).trace);
}

TEST(Campaign, ThreadCountDoesNotChangeResults) {
  // The reference is the determinism contract itself — a plain serial
  // loop of run_once — against dedicated pools of different sizes
  // actually claiming chunks (threads = 0 = uncapped), plus the
  // threads-capped serial path.
  const CompactTrace trace = test_trace();
  const Machine machine;
  CampaignConfig seq_cfg;
  seq_cfg.threads = 1;
  std::vector<double> a;
  for (std::size_t i = 0; i < 2000; ++i) {
    a.push_back(static_cast<double>(
        machine.run_once(trace, mix64(i, seq_cfg.master_seed))));
  }
  CampaignConfig uncapped;  // threads = 0: every pool worker may claim
  uncapped.grain = 32;      // many chunks so workers really interleave
  for (unsigned workers : {1u, 8u}) {
    ThreadPool pool(workers);
    std::vector<double> pooled(2000);
    run_campaign_into(machine, trace, 2000, pooled.data(), uncapped, 0, &pool);
    EXPECT_EQ(a, pooled) << "pool workers " << workers;
  }
  // threads = 1 caps the engine to the calling thread; same sample.
  std::vector<double> capped(2000);
  run_campaign_into(machine, trace, 2000, capped.data(), seq_cfg, 0);
  EXPECT_EQ(a, capped);
}

TEST(Campaign, MasterSeedChangesSample) {
  const CompactTrace trace = test_trace();
  const Machine machine;
  CampaignConfig c1;
  c1.master_seed = 1;
  CampaignConfig c2;
  c2.master_seed = 2;
  EXPECT_NE(run_campaign(machine, trace, 100, c1),
            run_campaign(machine, trace, 100, c2));
}

TEST(Campaign, FirstRunOffsetContinuesSequence) {
  const CompactTrace trace = test_trace();
  const Machine machine;
  const CampaignConfig cfg;
  const auto all = run_campaign(machine, trace, 200, cfg, 0);
  const auto head = run_campaign(machine, trace, 120, cfg, 0);
  const auto tail = run_campaign(machine, trace, 80, cfg, 120);
  std::vector<double> glued = head;
  glued.insert(glued.end(), tail.begin(), tail.end());
  EXPECT_EQ(all, glued);
}

TEST(Campaign, ZeroRunsIsEmpty) {
  const CompactTrace trace = test_trace();
  const Machine machine;
  EXPECT_TRUE(run_campaign(machine, trace, 0).empty());
}

TEST(CampaignSampler, ChunksMatchOneShotCampaign) {
  const CompactTrace trace = test_trace();
  const Machine machine;
  const CampaignConfig cfg;
  CampaignSampler sampler(machine, trace, cfg);
  std::vector<double> collected;
  for (std::size_t chunk : {100, 250, 50}) sampler.append_to(collected, chunk);
  EXPECT_EQ(sampler.runs_done(), 400u);
  EXPECT_EQ(collected, run_campaign(machine, trace, 400, cfg));
}

TEST(CampaignSampler, AppendToGrowsCallerBufferInPlace) {
  const CompactTrace trace = test_trace();
  const Machine machine;
  const CampaignConfig cfg;
  CampaignSampler sampler(machine, trace, cfg);
  std::vector<double> sample{-1.0, -2.0};  // pre-existing content survives
  sampler.append_to(sample, 150);
  sampler.append_to(sample, 50);
  ASSERT_EQ(sample.size(), 202u);
  EXPECT_EQ(sample[0], -1.0);
  EXPECT_EQ(sample[1], -2.0);
  const std::vector<double> want = run_campaign(machine, trace, 200, cfg);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), sample.begin() + 2));
}

TEST(Campaign, IntoWritesExactlyTheRequestedRange) {
  const CompactTrace trace = test_trace();
  const Machine machine;
  const CampaignConfig cfg;
  std::vector<double> buffer(300, -7.0);
  run_campaign_into(machine, trace, 100, buffer.data() + 100, cfg, 0);
  const std::vector<double> want = run_campaign(machine, trace, 100, cfg);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(buffer[i], -7.0);            // before the window: untouched
    EXPECT_EQ(buffer[100 + i], want[i]);   // the window: the campaign
    EXPECT_EQ(buffer[200 + i], -7.0);      // after the window: untouched
  }
}

TEST(Campaign, SamplesLookIid) {
  // The per-run randomization is the source of i.i.d.-ness MBPTA needs:
  // check the statistical tests accept a real campaign.
  const CompactTrace trace = test_trace();
  const Machine machine;
  const auto times = run_campaign(machine, trace, 4000, {});
  const mbpta::IidReport rep = mbcr::mbpta::check_iid(times, 0.001);
  EXPECT_TRUE(rep.passed()) << rep.summary();
}

}  // namespace
}  // namespace mbcr::platform
