// Shared plumbing for the reproduction benches: environment-variable
// configuration, campaign execution with progress output, and common
// printing.
//
// Every bench prints measured-vs-paper numbers.  Absolute agreement with a
// 2004 hardware testbed is not expected (see EXPERIMENTS.md); what the
// benches demonstrate is the SHAPE of each table/figure: which platform
// manifests more, which crash causes dominate, where the latency mass sits.
//
// Environment knobs:
//   KFI_INJECTIONS  per-campaign injection count   (default per bench)
//   KFI_SEED        campaign seed                  (default 1)
//   KFI_JOBS        campaign worker threads        (default 1 = serial,
//                   0 = hardware concurrency; results are bit-identical
//                   for any value)
// Campaigns run on the default MachineOptions.  The simulator's own speed
// is measured by kfibench/, and its fast paths' bit-exactness by the
// ctest parity suites, so no bench carries a fast-path knob.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/report.hpp"
#include "analysis/tally.hpp"
#include "inject/campaign.hpp"

namespace kfi::bench {

inline u32 env_u32(const char* name, u32 fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? static_cast<u32>(std::strtoul(value, nullptr, 10))
                          : fallback;
}

inline u64 env_u64(const char* name, u64 fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

/// KFI_JOBS resolved to a worker count (unset -> 1, 0 -> hw concurrency).
inline u32 env_jobs() {
  return inject::CampaignEngine::resolve_jobs(env_u32("KFI_JOBS", 1));
}

inline inject::CampaignSpec base_spec(isa::Arch arch,
                                      inject::CampaignKind kind,
                                      u32 default_injections) {
  inject::CampaignSpec spec;
  spec.arch = arch;
  spec.kind = kind;
  spec.injections = env_u32("KFI_INJECTIONS", default_injections);
  spec.seed = env_u64("KFI_SEED", 1);
  return spec;
}

inline inject::CampaignResult run_with_progress(
    const inject::CampaignSpec& spec) {
  const u32 jobs = env_jobs();
  std::fprintf(stderr, "[campaign] %s %s n=%u seed=%llu jobs=%u ...\n",
               isa::arch_name(spec.arch).c_str(),
               campaign_kind_name(spec.kind).c_str(), spec.injections,
               static_cast<unsigned long long>(spec.seed), jobs);
  const inject::CampaignPlan plan = inject::build_campaign_plan(spec);
  const inject::CampaignResult result =
      inject::CampaignEngine(jobs).run(plan);
  std::fprintf(stderr, "[campaign] %s\n",
               analysis::summarize_campaign(result).c_str());
  return result;
}

inline const char* fig_title(inject::CampaignKind kind) {
  switch (kind) {
    case inject::CampaignKind::kStack: return "Kernel Stack Injection";
    case inject::CampaignKind::kRegister: return "System Register Injection";
    case inject::CampaignKind::kData: return "Kernel Data Injection";
    case inject::CampaignKind::kCode: return "Code Injection";
    case inject::CampaignKind::kErrno: return "Syscall Errno Injection";
  }
  return "";
}

}  // namespace kfi::bench
