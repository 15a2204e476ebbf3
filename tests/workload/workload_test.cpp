// Workload tests: each benchmark program must run clean on a fault-free
// machine (all checks pass), be deterministic for a seed, and detect
// deliberately corrupted outputs (the fail-silence instrumentation).
#include <gtest/gtest.h>

#include "kernel/layout.hpp"
#include "workload/profiler.hpp"
#include "workload/workload.hpp"

namespace kfi::workload {
namespace {

using kernel::EventKind;
using kernel::Machine;
using kernel::MachineOptions;

struct Combo {
  isa::Arch arch;
  const char* factory;
};

std::unique_ptr<Workload> make_by_name(const std::string& name) {
  if (name == "fileops") return make_fileops();
  if (name == "pipeloop") return make_pipe_loop();
  if (name == "syscallmix") return make_syscall_mix();
  if (name == "ctxswitch") return make_context_switch();
  if (name == "memhog") return make_mem_hog();
  return make_suite();
}

class WorkloadCleanRunTest
    : public ::testing::TestWithParam<std::tuple<isa::Arch, std::string>> {};

TEST_P(WorkloadCleanRunTest, RunsCleanAndValidates) {
  const auto& [arch, name] = GetParam();
  Machine machine(arch, MachineOptions{});
  auto wl = make_by_name(name);
  wl->reset(42);
  u32 issued = 0;
  while (auto req = wl->next(machine)) {
    const kernel::Event ev =
        machine.syscall(req->nr, req->a0, req->a1, req->a2);
    ASSERT_EQ(ev.kind, EventKind::kSyscallDone)
        << name << " crashed after " << issued << " syscalls";
    ASSERT_TRUE(wl->check(machine, ev.ret)) << name << " @" << issued;
    ++issued;
  }
  EXPECT_GT(issued, 50u);
  EXPECT_EQ(issued, wl->issued());
  EXPECT_TRUE(wl->final_check(machine));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadCleanRunTest,
    ::testing::Combine(::testing::Values(isa::Arch::kCisca, isa::Arch::kRiscf),
                       ::testing::Values("fileops", "pipeloop", "syscallmix",
                                         "ctxswitch", "memhog", "suite")),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == isa::Arch::kCisca
                             ? "cisca_"
                             : "riscf_") +
             std::get<1>(info.param);
    });

TEST(WorkloadTest, DeterministicSyscallSequenceForSeed) {
  Machine machine(isa::Arch::kCisca, MachineOptions{});
  auto collect = [&machine](u64 seed) {
    machine.restore(machine.boot_snapshot());
    auto wl = make_suite();
    wl->reset(seed);
    std::vector<u32> nrs;
    while (auto req = wl->next(machine)) {
      const kernel::Event ev =
          machine.syscall(req->nr, req->a0, req->a1, req->a2);
      EXPECT_EQ(ev.kind, EventKind::kSyscallDone);
      wl->check(machine, ev.ret);
      nrs.push_back(static_cast<u32>(req->nr));
    }
    return nrs;
  };
  const auto a = collect(7);
  const auto b = collect(7);
  EXPECT_EQ(a, b);
}

TEST(WorkloadTest, FileopsDetectsCorruptedReadback) {
  // Corrupt a cached block between write and read-back: fileops must flag
  // the mismatch — this is the FSV detector.
  Machine machine(isa::Arch::kCisca, MachineOptions{});
  auto wl = make_fileops();
  wl->reset(3);
  bool detected = false;
  u32 issued = 0;
  while (auto req = wl->next(machine)) {
    const kernel::Event ev =
        machine.syscall(req->nr, req->a0, req->a1, req->a2);
    ASSERT_EQ(ev.kind, EventKind::kSyscallDone);
    if (req->nr == kernel::Syscall::kRead && issued > 3) {
      // Flip a byte of what was just read into the user buffer.
      const Addr buf = kernel::kUserBufBase + 0x1000;
      machine.space().vwrite8(buf, machine.space().vread8(buf) ^ 0x40);
    }
    if (!wl->check(machine, ev.ret)) {
      detected = true;
      break;
    }
    ++issued;
  }
  EXPECT_TRUE(detected);
}

TEST(WorkloadTest, PipeloopDetectsLostPackets) {
  // Drop a packet by stealing it from the rx ring: state_check must fail.
  Machine machine(isa::Arch::kRiscf, MachineOptions{});
  auto wl = make_pipe_loop();
  wl->reset(9);
  u32 steps = 0;
  while (auto req = wl->next(machine)) {
    const kernel::Event ev =
        machine.syscall(req->nr, req->a0, req->a1, req->a2);
    ASSERT_EQ(ev.kind, EventKind::kSyscallDone);
    wl->check(machine, ev.ret);
    if (++steps == 10) {
      // Steal: advance rx_tail past one queued packet, if any.
      const u32 head = machine.read_global("rx_head");
      const u32 tail = machine.read_global("rx_tail");
      if (head != tail) machine.write_global("rx_tail", tail + 1);
    }
  }
  // Either a check caught the reordering or the final state check fails.
  EXPECT_FALSE(wl->final_check(machine));
}

TEST(WorkloadTest, ProfilerSelectsHotFunctionsCoveringUsage) {
  Machine machine(isa::Arch::kCisca, MachineOptions{});
  auto wl = make_suite();
  const auto hot = profile_hot_functions(machine, *wl, 0.95, 1);
  ASSERT_FALSE(hot.empty());
  // Descending by usage, cumulative coverage reaches 95%.
  for (size_t i = 1; i < hot.size(); ++i) {
    EXPECT_LE(hot[i].entries, hot[i - 1].entries);
  }
  EXPECT_GE(hot.back().cumulative, 0.95);
  // The dispatcher is unavoidably the hottest function.
  EXPECT_EQ(hot.front().name, "sys_dispatch");
  // memcpy_user must rank among the hot functions (the paper's profiling
  // found data-movement dominating kernel usage).
  bool found_memcpy = false;
  for (const auto& fn : hot) found_memcpy |= fn.name == "memcpy_user";
  EXPECT_TRUE(found_memcpy);
}

TEST(WorkloadTest, ProfilerIsRepeatable) {
  Machine machine(isa::Arch::kRiscf, MachineOptions{});
  auto wl = make_suite();
  const auto a = profile_hot_functions(machine, *wl, 0.95, 1);
  const auto b = profile_hot_functions(machine, *wl, 0.95, 1);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].entries, b[i].entries);
  }
}

// The profiler counts function entries once per block dispatch on the
// superblock path and once per instruction when single-stepping.  Both
// must agree exactly: every block ends at a control transfer, so a
// function entry is always a block leader.  Checked on every kernel build
// the ablations use, since each option changes the emitted code.
struct ProfileConfig {
  const char* name;
  isa::Arch arch;
  bool spinlock_debug;
  bool g4_stack_wrapper;
  bool p4_stack_limit_check;
};

// Name the parameter in test listings (the default prints its raw bytes,
// pointer included, so the listed names would change from run to run).
void PrintTo(const ProfileConfig& c, std::ostream* os) { *os << c.name; }

class ProfileExactnessTest : public ::testing::TestWithParam<ProfileConfig> {};

TEST_P(ProfileExactnessTest, BlockPathCountsMatchSingleStepping) {
  const ProfileConfig& c = GetParam();
  MachineOptions opts;
  opts.spinlock_debug = c.spinlock_debug;
  opts.g4_stack_wrapper = c.g4_stack_wrapper;
  opts.p4_stack_limit_check = c.p4_stack_limit_check;
  std::vector<HotFunction> hot[2];  // superblocks on, off
  for (const bool superblock : {true, false}) {
    opts.superblock = superblock;
    Machine machine(c.arch, opts);
    auto wl = make_suite();
    // Coverage 1.0 keeps every function entered at least once.
    hot[superblock ? 0 : 1] = profile_hot_functions(machine, *wl, 1.0, 1);
    // The block run must really have profiled on blocks.
    EXPECT_EQ(machine.cpu().superblock_stats().block_insns > 0, superblock);
  }
  ASSERT_GT(hot[0].size(), 1u);
  ASSERT_EQ(hot[0].size(), hot[1].size());
  for (size_t i = 0; i < hot[0].size(); ++i) {
    EXPECT_EQ(hot[0][i].name, hot[1][i].name);
    EXPECT_EQ(hot[0][i].entries, hot[1][i].entries) << hot[0][i].name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelBuilds, ProfileExactnessTest,
    ::testing::Values(
        ProfileConfig{"cisca", isa::Arch::kCisca, true, true, false},
        ProfileConfig{"cisca_nospinlock", isa::Arch::kCisca, false, true,
                      false},
        ProfileConfig{"cisca_stacklimit", isa::Arch::kCisca, true, true, true},
        ProfileConfig{"riscf", isa::Arch::kRiscf, true, true, false},
        ProfileConfig{"riscf_nospinlock", isa::Arch::kRiscf, false, true,
                      false},
        ProfileConfig{"riscf_nowrapper", isa::Arch::kRiscf, true, false,
                      false}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(WorkloadTest, DiskPatternMatchesKernelImage) {
  Machine machine(isa::Arch::kCisca, MachineOptions{});
  const auto& disk = machine.image().object("disk_blocks");
  for (u32 block = 0; block < 4; ++block) {
    for (u32 i = 0; i < 8; ++i) {
      EXPECT_EQ(machine.space().vread8(disk.addr + block * 64 + i),
                disk_pattern(block, i));
    }
  }
}

}  // namespace
}  // namespace kfi::workload
