// Error-propagation tracing end to end: the observational contract
// (tracing on/off and any worker count fingerprint bit-identically),
// summary coherence over whole campaigns, and traced single injections
// on both modeled processors.
#include <gtest/gtest.h>

#include "inject/campaign.hpp"
#include "kernel/machine.hpp"
#include "trace/taint.hpp"
#include "workload/workload.hpp"

namespace kfi::inject {
namespace {

CampaignSpec small_spec(isa::Arch arch, CampaignKind kind, u32 n = 30,
                        u64 seed = 77) {
  CampaignSpec spec;
  spec.arch = arch;
  spec.kind = kind;
  spec.injections = n;
  spec.seed = seed;
  return spec;
}

TEST(PropagationParityTest, FingerprintIdenticalTraceOnOffAcrossJobs) {
  for (const auto arch : {isa::Arch::kCisca, isa::Arch::kRiscf}) {
    const auto spec = small_spec(arch, CampaignKind::kStack);
    const u64 baseline =
        result_fingerprint(run_campaign(spec, {}, /*jobs=*/1, false));
    for (const u32 jobs : {1u, 4u}) {
      for (const bool trace : {false, true}) {
        const CampaignResult r = run_campaign(spec, {}, jobs, trace);
        EXPECT_EQ(result_fingerprint(r), baseline)
            << isa::arch_name(arch) << " jobs=" << jobs
            << " trace=" << trace;
      }
    }
  }
}

TEST(PropagationParityTest, TraceSinkKeepsExecutionOnTheBlockPath) {
  // Tracing's off-path cost, checked deterministically: the same fault-free
  // syscalls on two identically booted machines, one with a sink attached,
  // must return the same values, charge the same cycles and run through
  // the same superblocks and single steps.  So a sink never moves
  // execution off the block path, and with no sink the hooks cost only
  // their null checks (which kfibench's *.ns_per_insn tracks).
  for (const auto arch : {isa::Arch::kCisca, isa::Arch::kRiscf}) {
    SCOPED_TRACE(isa::arch_name(arch));
    kernel::Machine plain(arch, kernel::MachineOptions{});
    kernel::Machine traced(arch, kernel::MachineOptions{});
    trace::TaintEngine taint;
    taint.reset();
    traced.set_trace_sink(&taint);
    auto plain_wl = workload::make_suite();
    auto traced_wl = workload::make_suite();
    plain_wl->reset(5);
    traced_wl->reset(5);
    u32 issued = 0;
    while (auto req = plain_wl->next(plain)) {
      const auto traced_req = traced_wl->next(traced);
      ASSERT_TRUE(traced_req.has_value());
      const kernel::Event a = plain.syscall(req->nr, req->a0, req->a1, req->a2);
      const kernel::Event b = traced.syscall(traced_req->nr, traced_req->a0,
                                             traced_req->a1, traced_req->a2);
      ASSERT_EQ(a.kind, kernel::EventKind::kSyscallDone) << "@" << issued;
      ASSERT_EQ(b.kind, a.kind) << "@" << issued;
      EXPECT_EQ(b.ret, a.ret) << "@" << issued;
      ASSERT_TRUE(plain_wl->check(plain, a.ret)) << "@" << issued;
      ASSERT_TRUE(traced_wl->check(traced, b.ret)) << "@" << issued;
      ++issued;
    }
    EXPECT_FALSE(traced_wl->next(traced).has_value());
    EXPECT_GT(taint.insns(), 0u);  // the sink really saw the run

    EXPECT_EQ(traced.cpu().cycles(), plain.cpu().cycles());
    const isa::SuperblockStats want = plain.cpu().superblock_stats();
    const isa::SuperblockStats got = traced.cpu().superblock_stats();
    EXPECT_GT(want.dispatches, 0u);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.invalidations, want.invalidations);
    EXPECT_EQ(got.dispatches, want.dispatches);
    EXPECT_EQ(got.block_insns, want.block_insns);
    EXPECT_EQ(traced.cpu().decode_cache_stats().misses,
              plain.cpu().decode_cache_stats().misses);
  }
}

TEST(PropagationParityTest, TracedRecordsCarrySummariesUntracedDoNot) {
  const auto spec = small_spec(isa::Arch::kRiscf, CampaignKind::kStack, 20);
  const CampaignResult off = run_campaign(spec, {}, 1, false);
  const CampaignResult on = run_campaign(spec, {}, 1, true);
  for (const auto& r : off.records) EXPECT_FALSE(r.propagation_valid);
  for (const auto& r : on.records) {
    EXPECT_TRUE(r.propagation_valid);
    EXPECT_TRUE(r.propagation.traced);
  }
}

TEST(PropagationParityTest, CampaignSummariesAreCoherent) {
  for (const auto arch : {isa::Arch::kCisca, isa::Arch::kRiscf}) {
    const CampaignResult result =
        run_campaign(small_spec(arch, CampaignKind::kStack, 40), {}, 1, true);
    u32 seeded = 0, used = 0;
    for (const auto& r : result.records) {
      ASSERT_TRUE(r.propagation_valid);
      const auto& p = r.propagation;
      seeded += p.seeded ? 1 : 0;
      used += p.used ? 1 : 0;
      if (p.used) {
        // A consumed error must have been seeded, at a consistent time,
        // through at least one tainted read at depth >= 1.
        EXPECT_TRUE(p.seeded);
        EXPECT_GE(p.first_use_insn, p.seed_insn);
        EXPECT_EQ(p.first_use_latency, p.first_use_insn - p.seed_insn);
        EXPECT_GE(p.tainted_reads, 1u);
        EXPECT_GE(p.max_depth, 1u);
      } else {
        EXPECT_EQ(p.max_depth, 0u);
        EXPECT_EQ(p.tainted_branches, 0u);
        EXPECT_FALSE(p.syscall_result_tainted);
      }
      if (p.live_at_end) {
        EXPECT_TRUE(p.live_regs_at_end > 0 || p.live_bytes_at_end > 0);
      }
    }
    // Stack flips always land in an allocated stack word: every run
    // seeds, and at this scale some errors must actually be consumed.
    EXPECT_EQ(seeded, result.records.size()) << isa::arch_name(arch);
    EXPECT_GT(used, 0u) << isa::arch_name(arch);
  }
}

TEST(PropagationSingleInjectionTest, SpinlockMagicFlipTracesOnBothArches) {
  // The Figure 13 worked example: a flipped spinlock magic byte is read
  // by the very next lock acquisition, so the trace must show a seeded,
  // consumed error whose chain is at least one hop deep.
  for (const auto arch : {isa::Arch::kCisca, isa::Arch::kRiscf}) {
    kernel::Machine machine(arch, kernel::MachineOptions{});
    auto wl = workload::make_suite();
    const auto& lock = machine.image().object("kernel_flag_cacheline");
    const InjectionTarget t = InjectionTarget::data(
        lock.addr + lock.field_named("magic").offset, 22);
    trace::TaintEngine taint;
    const InjectionRecord record =
        run_single_injection(machine, *wl, t, 5, &taint);
    ASSERT_EQ(record.outcome, OutcomeCategory::kKnownCrash)
        << isa::arch_name(arch);
    ASSERT_TRUE(record.propagation_valid);
    const auto& p = record.propagation;
    EXPECT_TRUE(p.seeded) << isa::arch_name(arch);
    EXPECT_TRUE(p.used) << isa::arch_name(arch);
    EXPECT_GE(p.max_depth, 1u);
    EXPECT_GE(p.tainted_reads, 1u);
    // The corrupted magic word is still in memory at the crash.
    EXPECT_TRUE(p.live_at_end);
  }
}

TEST(PropagationSingleInjectionTest, UntracedSingleInjectionHasNoSummary) {
  kernel::Machine machine(isa::Arch::kCisca, kernel::MachineOptions{});
  auto wl = workload::make_suite();
  const auto& lock = machine.image().object("kernel_flag_cacheline");
  const InjectionTarget t = InjectionTarget::data(
      lock.addr + lock.field_named("magic").offset, 22);
  const InjectionRecord record = run_single_injection(machine, *wl, t, 5);
  EXPECT_FALSE(record.propagation_valid);
}

}  // namespace
}  // namespace kfi::inject
