// Unit coverage for the campaign plan/engine layers: plan freezing,
// jobs-knob resolution, throughput observability, and the shared
// calibration helpers used by both run_campaign and run_single_injection.
#include <gtest/gtest.h>

#include "inject/campaign.hpp"

namespace kfi::inject {
namespace {

CampaignSpec tiny_spec(isa::Arch arch, CampaignKind kind, u32 n) {
  CampaignSpec spec;
  spec.arch = arch;
  spec.kind = kind;
  spec.injections = n;
  spec.seed = 42;
  return spec;
}

TEST(CampaignPlanTest, FreezesEverythingTheWorkersNeed) {
  const CampaignPlan plan =
      build_campaign_plan(tiny_spec(isa::Arch::kCisca, CampaignKind::kCode, 30));
  ASSERT_NE(plan.image, nullptr);
  EXPECT_EQ(plan.image->arch, isa::Arch::kCisca);
  EXPECT_EQ(plan.targets.size(), 30u);
  EXPECT_EQ(plan.run_seeds.size(), 30u);
  EXPECT_GT(plan.nominal_cycles, 1'000'000u);
  EXPECT_GT(plan.budget_cycles, plan.nominal_cycles);
  EXPECT_GT(plan.kernel_fraction, 0.0);
  EXPECT_LT(plan.kernel_fraction, 1.0);
  EXPECT_FALSE(plan.hot_functions.empty());
  EXPECT_GE(plan.plan_seconds, 0.0);
  // Pre-drawn seeds are (overwhelmingly) distinct.
  for (size_t i = 1; i < plan.run_seeds.size(); ++i) {
    EXPECT_NE(plan.run_seeds[i], plan.run_seeds[0]);
  }
}

TEST(CampaignPlanTest, PlanIsReproducible) {
  const auto spec = tiny_spec(isa::Arch::kRiscf, CampaignKind::kStack, 20);
  const CampaignPlan a = build_campaign_plan(spec);
  const CampaignPlan b = build_campaign_plan(spec);
  EXPECT_EQ(a.nominal_cycles, b.nominal_cycles);
  EXPECT_EQ(a.kernel_fraction, b.kernel_fraction);
  EXPECT_EQ(a.budget_cycles, b.budget_cycles);
  EXPECT_EQ(a.run_seeds, b.run_seeds);
  ASSERT_EQ(a.targets.size(), b.targets.size());
  for (size_t i = 0; i < a.targets.size(); ++i) {
    EXPECT_EQ(a.targets[i].site().task, b.targets[i].site().task);
    EXPECT_EQ(a.targets[i].site().bit, b.targets[i].site().bit);
    EXPECT_EQ(a.targets[i].site().depth_frac, b.targets[i].site().depth_frac);
  }
  EXPECT_EQ(a.image->code, b.image->code);
  EXPECT_EQ(a.image->data, b.image->data);
}

TEST(CampaignPlanTest, SingleInjectionUsesTheCampaignKernelFraction) {
  // The satellite fix: run_single_injection must compute kernel_fraction
  // the same way run_campaign does, via the shared helpers.
  const auto spec = tiny_spec(isa::Arch::kCisca, CampaignKind::kRegister, 5);
  const CampaignPlan plan = build_campaign_plan(spec);

  kernel::Machine machine(spec.arch, campaign_machine_options(spec));
  auto wl = workload::make_suite(spec.workload_scale);
  const u64 nominal = calibrate_workload(machine, *wl, spec.seed);
  EXPECT_EQ(nominal, plan.nominal_cycles);
  EXPECT_EQ(calibrated_kernel_fraction(machine, nominal),
            plan.kernel_fraction);
  // Degenerate calibration falls back to the documented default.
  EXPECT_EQ(calibrated_kernel_fraction(machine, 0), 0.15);
}

TEST(CampaignEngineTest, ResolvesJobsKnob) {
  EXPECT_EQ(CampaignEngine::resolve_jobs(1), 1u);
  EXPECT_EQ(CampaignEngine::resolve_jobs(5), 5u);
  EXPECT_GE(CampaignEngine::resolve_jobs(0), 1u);  // hardware concurrency
  EXPECT_EQ(CampaignEngine(3).jobs(), 3u);
}

TEST(CampaignEngineTest, ReportsThroughput) {
  const CampaignPlan plan =
      build_campaign_plan(tiny_spec(isa::Arch::kRiscf, CampaignKind::kData, 10));
  const CampaignResult result = CampaignEngine(2).run(plan);
  EXPECT_EQ(result.records.size(), 10u);
  EXPECT_EQ(result.throughput.jobs, 2u);
  EXPECT_GT(result.throughput.run_seconds, 0.0);
  EXPECT_GE(result.throughput.wall_seconds, result.throughput.run_seconds);
  EXPECT_EQ(result.throughput.plan_seconds, plan.plan_seconds);
  EXPECT_GT(result.throughput.simulated_cycles, 0u);
  EXPECT_GT(result.throughput.injections_per_second(result.records.size()),
            0.0);
}

TEST(CampaignEngineTest, MoreWorkersThanTargetsIsClamped) {
  const CampaignPlan plan =
      build_campaign_plan(tiny_spec(isa::Arch::kCisca, CampaignKind::kData, 3));
  const CampaignResult result = CampaignEngine(16).run(plan);
  EXPECT_EQ(result.records.size(), 3u);
  EXPECT_LE(result.throughput.jobs, 3u);
  EXPECT_EQ(result.reboots, 3u);
}

}  // namespace
}  // namespace kfi::inject
