// CampaignController: the NFTAPE control host (paper Figure 1).
//
// A campaign is a three-layer pipeline:
//   CampaignPlan    (plan.hpp)    — STEP 1 frozen: calibration, profile,
//                                   pre-generated targets, pre-drawn seeds
//   CampaignEngine  (engine.hpp)  — worker Machines execute the plan,
//                                   serial or parallel
//   deterministic merge           — records at their target index,
//                                   counters summed; bit-identical for any
//                                   worker count
// run_campaign() below is the one-call convenience path through all three.
#pragma once

#include "inject/engine.hpp"
#include "inject/plan.hpp"
#include "inject/record.hpp"
#include "kernel/machine.hpp"
#include "trace/taint.hpp"

namespace kfi::inject {

/// Run a full campaign (Figure 2's automated process): build the plan,
/// execute it on `jobs` workers (0 = hardware concurrency), merge.  The
/// result is bit-identical for the same spec regardless of `jobs`, and —
/// because tracing is observational — regardless of `trace`.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const ProgressFn& progress = {}, u32 jobs = 1,
                            bool trace = false);

/// Convenience for worked-example reproductions: run a single targeted
/// injection on a caller-provided machine/workload pair.  Calibrates the
/// machine the same way run_campaign does (shared helpers in plan.hpp),
/// including the kernel-time fraction.  When `taint` is non-null the run
/// is traced through it (sink attached for the run, detached after) and
/// the record carries a PropagationSummary.
InjectionRecord run_single_injection(kernel::Machine& machine,
                                     workload::Workload& wl,
                                     const InjectionTarget& target,
                                     u64 seed = 1,
                                     trace::TaintEngine* taint = nullptr,
                                     const FaultModel& model = {});

/// The records an (possibly interrupted) campaign actually produced:
/// resumed + executed indices, in target order.  For a completed campaign
/// this is simply a copy of result.records.
std::vector<InjectionRecord> completed_records(const CampaignResult& result);

/// FNV-1a over every determinism-relevant field of a merged campaign
/// result.  Two results with equal fingerprints ran bit-identically; the
/// scaling bench, the fast-path cross-check, and CI all compare campaigns
/// through this one function (jobs counts, superblocks on/off, fast vs
/// full-copy reboot).
u64 result_fingerprint(const CampaignResult& result);

}  // namespace kfi::inject
