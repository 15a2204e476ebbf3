// Fast-path cross-check: the dirty-page reboot and superblock execution
// are pure speedups, so a campaign run with either of them disabled must
// produce the bit-identical merged result.  This is the acceptance gate
// for those optimizations: one frozen plan per arch x campaign kind,
// executed with every knob combination, compared through
// inject::result_fingerprint.  With superblocks off every instruction runs
// through step(), the uncached reference decoder.  Exits non-zero on any
// divergence.
//
// Knobs: KFI_INJECTIONS (default 96), KFI_SEED, KFI_JOBS.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace kfi;

namespace {

struct Variant {
  std::string name;
  bool fast_reboot;
  bool superblock;
};

/// The full cross of the bit-exact perf knobs, generated so that no
/// combination can be listed twice or left out (COW is exercised
/// separately by the parity tests: it changes restore mechanics, not the
/// step path, and every engine run above jobs=1 already goes through it).
/// The first variant, all knobs on, is the reference.
std::vector<Variant> knob_cross() {
  std::vector<Variant> variants;
  for (const bool fast_reboot : {true, false}) {
    for (const bool superblock : {true, false}) {
      variants.push_back({std::string(fast_reboot ? "fast" : "fullcopy") +
                              (superblock ? "+sb" : "+nosb"),
                          fast_reboot, superblock});
    }
  }
  return variants;
}

}  // namespace

int main() {
  const u32 n = bench::env_u32("KFI_INJECTIONS", 96);
  const u32 jobs = bench::env_jobs();
  const std::vector<Variant> variants = knob_cross();
  bool ok = true;

  // CI guards on this count: adding a bit-exact knob must extend the
  // cross (see .github/workflows).
  std::printf("variants=%zu\n", variants.size());

  for (const auto arch : {isa::Arch::kCisca, isa::Arch::kRiscf}) {
    for (const auto kind :
         {inject::CampaignKind::kCode, inject::CampaignKind::kData,
          inject::CampaignKind::kStack, inject::CampaignKind::kRegister}) {
      auto spec = bench::base_spec(arch, kind, n);
      // The plan is knob-independent (calibration runs on a default
      // machine); build it once and only vary the workers' options.
      const inject::CampaignPlan plan = inject::build_campaign_plan(spec);
      u64 reference_fp = 0;
      std::printf("%s %-8s n=%u:", isa::arch_name(arch).c_str(),
                  campaign_kind_name(kind).c_str(), plan.spec.injections);
      for (const Variant& v : variants) {
        inject::CampaignPlan variant = plan;
        variant.spec.machine.fast_reboot = v.fast_reboot;
        variant.spec.machine.superblock = v.superblock;
        const inject::CampaignResult result =
            inject::CampaignEngine(jobs).run(variant);
        const u64 fp = inject::result_fingerprint(result);
        if (&v == &variants.front()) reference_fp = fp;
        const bool same = fp == reference_fp;
        std::printf(" %s=%s", v.name.c_str(), same ? "ok" : "DIVERGED");
        if (!same) {
          ok = false;
          std::fprintf(stderr,
                       "FATAL: %s %s %s diverged (fp %" PRIx64 " vs %" PRIx64
                       ")\n",
                       isa::arch_name(arch).c_str(),
                       campaign_kind_name(kind).c_str(), v.name.c_str(), fp,
                       reference_fp);
        }
      }
      std::printf("\n");
    }
  }
  std::printf("%s\n", ok ? "fast paths bit-identical" : "FAST PATHS DIVERGED");
  return ok ? 0 : 1;
}
