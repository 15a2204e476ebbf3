// The perf fast paths' bit-exactness contract: the dirty-page reboot and
// superblock execution are pure speedups.  For every arch and campaign
// kind, a campaign run with either disabled must produce a bit-identical
// result — same records, same merged counters — as the default
// configuration, at any worker count, with tracing on or off.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "inject/campaign.hpp"
#include "inject/engine.hpp"

namespace kfi::inject {
namespace {

CampaignSpec fastpath_spec(isa::Arch arch, CampaignKind kind) {
  CampaignSpec spec;
  spec.arch = arch;
  spec.kind = kind;
  spec.injections = 12;
  spec.seed = 77;
  return spec;
}

/// A plan copy with the machine fast-path knobs overridden.  Workers build
/// their Machines from plan.spec.machine, so this flips the config without
/// replanning — the injection targets stay literally identical.
CampaignPlan with_knobs(const CampaignPlan& plan, bool fast_reboot,
                        bool superblock) {
  CampaignPlan variant = plan;
  variant.spec.machine.fast_reboot = fast_reboot;
  variant.spec.machine.superblock = superblock;
  return variant;
}

class FastPathParityTest
    : public ::testing::TestWithParam<std::tuple<isa::Arch, CampaignKind>> {};

TEST_P(FastPathParityTest, FastPathsAreBitExact) {
  const auto& [arch, kind] = GetParam();
  const CampaignPlan plan = build_campaign_plan(fastpath_spec(arch, kind));

  const CampaignResult baseline = CampaignEngine(2).run(plan);
  const u64 want = result_fingerprint(baseline);

  struct Variant {
    const char* name;
    bool fast_reboot, superblock;
  };
  const Variant variants[] = {
      {"full_copy_reboot", false, true},
      {"no_superblock", true, false},
      {"no_fast_paths_at_all", false, false},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    const CampaignResult got = CampaignEngine(2).run(
        with_knobs(plan, v.fast_reboot, v.superblock));
    ASSERT_EQ(got.records.size(), baseline.records.size());
    EXPECT_EQ(result_fingerprint(got), want);
    // The fingerprint covers these, but compare a few directly so a
    // divergence points at the field, not just at a hash mismatch.
    EXPECT_EQ(got.reboots, baseline.reboots);
    EXPECT_EQ(got.nominal_cycles, baseline.nominal_cycles);
    for (size_t i = 0; i < got.records.size(); ++i) {
      EXPECT_EQ(got.records[i].outcome, baseline.records[i].outcome)
          << "record " << i;
      EXPECT_EQ(got.records[i].cycles_to_crash,
                baseline.records[i].cycles_to_crash)
          << "record " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCampaigns, FastPathParityTest,
    ::testing::Combine(::testing::Values(isa::Arch::kCisca, isa::Arch::kRiscf),
                       ::testing::Values(CampaignKind::kStack,
                                         CampaignKind::kRegister,
                                         CampaignKind::kData,
                                         CampaignKind::kCode)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == isa::Arch::kCisca
                             ? "cisca_"
                             : "riscf_") +
             campaign_kind_name(std::get<1>(info.param));
    });

// Superblock {on,off} x jobs {1,4} x trace {on,off} must all merge to one
// fingerprint, per arch.
// (The code campaign is the stressful one for superblocks: the injector
// corrupts exactly the bytes the block cache holds.)
class SuperblockJobsTraceMatrixTest
    : public ::testing::TestWithParam<isa::Arch> {};

TEST_P(SuperblockJobsTraceMatrixTest, AllCombinationsMergeIdentically) {
  const isa::Arch arch = GetParam();
  const CampaignPlan plan =
      build_campaign_plan(fastpath_spec(arch, CampaignKind::kCode));
  const u64 want = result_fingerprint(CampaignEngine(1).run(plan));

  for (const bool superblock : {true, false}) {
    for (const u32 jobs : {1u, 4u}) {
      for (const bool trace : {false, true}) {
        SCOPED_TRACE("superblock=" + std::to_string(superblock) +
                     " jobs=" + std::to_string(jobs) +
                     " trace=" + std::to_string(trace));
        RunControl ctl;
        ctl.trace = trace;
        const CampaignResult got = CampaignEngine(jobs).run(
            with_knobs(plan, true, superblock), {}, ctl);
        EXPECT_EQ(result_fingerprint(got), want);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothArches, SuperblockJobsTraceMatrixTest,
                         ::testing::Values(isa::Arch::kCisca,
                                           isa::Arch::kRiscf),
                         [](const auto& info) {
                           return std::string(info.param == isa::Arch::kCisca
                                                  ? "cisca"
                                                  : "riscf");
                         });

// The CI control campaigns (data, n=16, seed 77) must produce the literal
// fingerprints the fabric tests and CI steps pin, under every fast-reboot x
// superblock setting.  The parity cases above compare variants with each
// other; this catches a change that moves all of them together.
TEST(FastPathPinTest, ControlFingerprintsHoldOnEveryVariant) {
  struct Pin {
    isa::Arch arch;
    u64 fingerprint;
  };
  const Pin pins[] = {{isa::Arch::kCisca, 0xAB480E702F164E0Eull},
                      {isa::Arch::kRiscf, 0x1DBE290A02436345ull}};
  for (const Pin& pin : pins) {
    CampaignSpec spec = fastpath_spec(pin.arch, CampaignKind::kData);
    spec.injections = 16;
    const CampaignPlan plan = build_campaign_plan(spec);
    for (const bool fast_reboot : {true, false}) {
      for (const bool superblock : {true, false}) {
        SCOPED_TRACE(isa::arch_name(pin.arch) +
                     " fast_reboot=" + std::to_string(fast_reboot) +
                     " superblock=" + std::to_string(superblock));
        const CampaignResult got = CampaignEngine(2).run(
            with_knobs(plan, fast_reboot, superblock));
        EXPECT_EQ(result_fingerprint(got), pin.fingerprint);
      }
    }
  }
}

TEST(ResultFingerprintTest, DistinguishesDifferentCampaigns) {
  // Guard against a degenerate hash: different seeds must (for any
  // non-pathological case) fingerprint differently.
  auto spec = fastpath_spec(isa::Arch::kCisca, CampaignKind::kData);
  const CampaignResult a = CampaignEngine(1).run(build_campaign_plan(spec));
  spec.seed = 1234;
  const CampaignResult b = CampaignEngine(1).run(build_campaign_plan(spec));
  EXPECT_NE(result_fingerprint(a), result_fingerprint(b));
}

}  // namespace
}  // namespace kfi::inject
