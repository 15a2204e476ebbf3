// Propagation-tracing cost gate: the trace subsystem must be free when
// off and strictly observational when on.
//
// One frozen CampaignPlan per arch, executed as two tracing-off series
// (A and B) and one tracing-on series, KFI_REPS runs each, interleaved.
// Gates, per arch:
//   1. Every run fingerprints bit-identically — tracing can never change
//      an outcome (the observational contract).
//   2. The medians of the two tracing-off series agree in step rate within
//      the tolerance (default 2%): with no sink attached every hook is one
//      predictable null check, so any systematic cost would show up here
//      against the run-to-run noise floor.  Each round runs A, B and the
//      traced run, with A and B swapping places every round (A B on,
//      B A on, ...), so host drift moves both series alike, and medians
//      discard the runs a busy host slowed down.
// The tracing-on overhead (shadow-state bookkeeping) is measured and
// reported, not gated — it is the price of the propagation study, paid
// only when --trace is requested.
//
// Knobs: KFI_INJECTIONS (default 96), KFI_SEED, KFI_JOBS, KFI_REPS
//        (default 7), KFI_OFF_TOLERANCE_PCT (default 2).
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace kfi;

namespace {

struct Timed {
  u64 fingerprint = 0;
  double rate = 0.0;  // simulated cycles per wall second
};

Timed run_variant(const inject::CampaignPlan& plan, u32 jobs, bool trace) {
  inject::RunControl control;
  control.trace = trace;
  const inject::CampaignResult result =
      inject::CampaignEngine(jobs).run(plan, {}, control);
  return Timed{inject::result_fingerprint(result),
               result.throughput.simulated_cycles_per_second()};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

}  // namespace

int main() {
  const u32 n = bench::env_u32("KFI_INJECTIONS", 96);
  const u32 jobs = bench::env_jobs();
  const double tolerance =
      static_cast<double>(bench::env_u32("KFI_OFF_TOLERANCE_PCT", 2)) / 100.0;
  bool ok = true;

  for (const auto arch : {isa::Arch::kCisca, isa::Arch::kRiscf}) {
    auto spec = bench::base_spec(arch, inject::CampaignKind::kStack, n);
    const inject::CampaignPlan plan = inject::build_campaign_plan(spec);

    // Untimed warm-up, which also gives the reference fingerprint: the
    // first campaign on a plan pays one-off costs (allocator growth,
    // page-cache population) that would otherwise bias the first timed
    // off run.
    const u64 want = run_variant(plan, jobs, false).fingerprint;

    const u32 reps = std::max<u32>(1, bench::env_u32("KFI_REPS", 7));
    std::vector<double> off_a, off_b, on;
    bool same = true;
    auto run = [&](std::vector<double>& series, bool trace) {
      const Timed t = run_variant(plan, jobs, trace);
      same = same && t.fingerprint == want;
      series.push_back(t.rate);
    };
    for (u32 i = 0; i < reps; ++i) {
      std::vector<double>& first = i % 2 == 0 ? off_a : off_b;
      std::vector<double>& second = i % 2 == 0 ? off_b : off_a;
      run(first, false);
      run(second, false);
      run(on, true);
    }

    const double med_a = median(off_a);
    const double med_b = median(off_b);
    const double off_rate = std::max(med_a, med_b);
    const double off_delta =
        off_rate > 0.0 ? std::abs(med_a - med_b) / off_rate : 0.0;
    const double on_rate = median(on);
    const double on_overhead =
        on_rate > 0.0 ? off_rate / on_rate - 1.0 : 0.0;

    std::printf(
        "%s n=%u jobs=%u reps=%u: off median %.2f / %.2f Mcyc/s "
        "(delta %.2f%%), on median %.2f Mcyc/s (overhead %.1f%%)\n",
        isa::arch_name(arch).c_str(), plan.spec.injections, jobs, reps,
        med_a / 1e6, med_b / 1e6, off_delta * 100.0, on_rate / 1e6,
        on_overhead * 100.0);

    if (!same) {
      std::fprintf(stderr,
                   "FATAL: %s results diverge with tracing (want %" PRIx64
                   ")\n",
                   isa::arch_name(arch).c_str(), want);
      ok = false;
    }
    if (off_delta > tolerance) {
      std::fprintf(stderr,
                   "FATAL: %s tracing-off step-rate cost %.2f%% exceeds "
                   "%.0f%% tolerance\n",
                   isa::arch_name(arch).c_str(), off_delta * 100.0,
                   tolerance * 100.0);
      ok = false;
    }
  }

  std::printf("propagation_overhead: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
