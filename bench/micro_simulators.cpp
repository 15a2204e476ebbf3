// Microbenchmarks (google-benchmark) for the simulation substrate itself:
// interpreter throughput on both ISAs, syscall round-trip cost, machine
// snapshot/restore ("reboot") cost, and the cost of a full injection
// experiment — the numbers that determine how large a campaign is
// practical.
#include <benchmark/benchmark.h>

#include "inject/experiment.hpp"
#include "inject/target_gen.hpp"
#include "kernel/abi.hpp"
#include "kernel/layout.hpp"
#include "kernel/machine.hpp"
#include "workload/profiler.hpp"
#include "workload/workload.hpp"

namespace {

using namespace kfi;

isa::Arch arch_of(const benchmark::State& state) {
  return state.range(0) == 0 ? isa::Arch::kCisca : isa::Arch::kRiscf;
}

void BM_InterpreterSyscallThroughput(benchmark::State& state) {
  kernel::Machine machine(arch_of(state), kernel::MachineOptions{});
  u64 syscalls = 0;
  for (auto _ : state) {
    const kernel::Event ev = machine.syscall(kernel::Syscall::kRead, 0,
                                             kernel::kUserBufBase, 64);
    benchmark::DoNotOptimize(ev.ret);
    ++syscalls;
    if (machine.read_global("syscall_count") > 100000) {
      state.PauseTiming();
      machine.restore(machine.boot_snapshot());
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<i64>(syscalls));
}
BENCHMARK(BM_InterpreterSyscallThroughput)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("arch(0=cisca,1=riscf)");

void BM_SnapshotRestoreReboot(benchmark::State& state) {
  // Per-injection reboot cost.  Each iteration dirties memory the way a
  // short experiment does (one syscall, untimed) and restores the boot
  // snapshot (timed).  arg1 selects dirty-page fast restore vs the
  // full-copy baseline; pages/reboot shows the O(memory) -> O(dirty
  // pages) drop.
  kernel::MachineOptions opts;
  opts.fast_reboot = state.range(1) != 0;
  kernel::Machine machine(arch_of(state), opts);
  auto& pm = machine.space().phys();
  const u64 pages_before = pm.restore_pages_copied();
  for (auto _ : state) {
    state.PauseTiming();
    machine.syscall(kernel::Syscall::kGetpid);
    state.ResumeTiming();
    machine.restore(machine.boot_snapshot());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          kernel::kPhysBytes);
  state.counters["pages/reboot"] =
      static_cast<double>(pm.restore_pages_copied() - pages_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_SnapshotRestoreReboot)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 0})
    ->Args({1, 0})
    ->ArgNames({"arch", "fast"});

void BM_KernelImageBuild(benchmark::State& state) {
  for (auto _ : state) {
    const kir::Image image = kernel::build_kernel_image(arch_of(state));
    benchmark::DoNotOptimize(image.code.size());
  }
}
BENCHMARK(BM_KernelImageBuild)->Arg(0)->Arg(1)->ArgName("arch");

void BM_FullInjectionExperiment(benchmark::State& state) {
  const isa::Arch arch = arch_of(state);
  kernel::Machine machine(arch, kernel::MachineOptions{});
  auto wl = workload::make_suite(1);
  const auto hot = workload::profile_hot_functions(machine, *wl, 0.95, 1);
  inject::TargetGenerator gen(machine.image(), hot,
                              machine.cpu().sysregs().count(), 3);
  inject::UdpChannel channel(0.03, 5);
  inject::CrashCollector collector;
  inject::ExperimentRunner runner(machine, *wl, channel, collector,
                                  40'000'000, 120'000'000);
  u32 seq = 0;
  u64 seed = 11;
  for (auto _ : state) {
    const auto target = gen.next(inject::CampaignKind::kCode);
    const auto record = runner.run_one(target, ++seed, seq++);
    benchmark::DoNotOptimize(record.outcome);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_FullInjectionExperiment)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("arch")
    ->Unit(benchmark::kMillisecond);

void BM_RawInstructionRate(benchmark::State& state) {
  // Pure interpreter speed: run the hot read syscall and count simulated
  // instructions per wall second via cycle deltas (cycles ~ instructions
  // within a few percent for this code).  arg1 toggles superblock
  // (multi-instruction trace) execution; sb=0 single-steps through the
  // uncached decoder, so sb=1 vs sb=0 is the superblock speedup.
  // Superblock runs report hit rate, mean block length, blocks
  // invalidated (non-zero = restores/stores touched cached code and were
  // caught), and the single steps left over (page-end fallbacks).
  kernel::MachineOptions opts;
  opts.superblock = state.range(1) != 0;
  kernel::Machine machine(arch_of(state), opts);
  u64 cycles = 0;
  for (auto _ : state) {
    const u64 before = machine.cpu().cycles();
    machine.syscall(kernel::Syscall::kWrite, 1, kernel::kUserBufBase, 64);
    cycles += machine.cpu().cycles() - before;
    if (machine.read_global("syscall_count") > 100000) {
      state.PauseTiming();
      machine.restore(machine.boot_snapshot());
      state.ResumeTiming();
    }
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["single_steps"] =
      static_cast<double>(machine.cpu().decode_cache_stats().misses);
  const isa::SuperblockStats sb = machine.cpu().superblock_stats();
  state.counters["sb_hit_rate"] = sb.hit_rate();
  state.counters["sb_mean_block_len"] = sb.mean_block_len();
  state.counters["sb_invalidated"] = static_cast<double>(sb.invalidations);
}
BENCHMARK(BM_RawInstructionRate)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 0})
    ->Args({1, 0})
    ->ArgNames({"arch", "sb"});

}  // namespace

BENCHMARK_MAIN();
