// Machine: one booted minux system (CPU + memory + kernel image + runtime
// glue), the unit the injection framework experiments on.
//
// The runtime glue plays the role of the hardware exception plumbing and
// the lowest-level kernel entry stubs:
//   * system-call entry/exit (int 0x80-style on cisca, sc on riscf),
//   * periodic timer interrupts delivered on the current kernel stack,
//     with the interrupted context SAVED IN SIMULATED STACK MEMORY so that
//     stack injections can corrupt saved frames exactly as on hardware,
//   * the cisca IDTR sanity and EFLAGS.NT checks (-> #GP / Invalid TSS),
//   * the riscf SPRG2 stack-switch use on user-mode interrupts and the
//     exception-entry stack-range checking wrapper that yields the G4's
//     explicit Stack Overflow category (paper Section 6),
//   * the three-stage cycles-to-crash model of Figure 3.
//
// Machine exposes an event-driven run loop: the injection framework arms
// breakpoints, calls run(), and receives breakpoint/crash/completion
// events, mirroring how NFTAPE's kernel injector drove the real machines.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "isa/cpu.hpp"
#include "kernel/abi.hpp"
#include "kernel/crash.hpp"
#include "kernel/layout.hpp"
#include "kir/backend.hpp"
#include "kir/image.hpp"
#include "mem/address_space.hpp"

namespace kfi::cisca {
class CiscaCpu;
}
namespace kfi::riscf {
class RiscfCpu;
}

namespace kfi::kernel {

enum class EventKind : u8 {
  kSyscallDone,  // syscall completed; Event::ret holds the return value
  kCrash,        // fatal exception; Event::crash holds the classified report
  kCheckstop,    // machine check with MSR.ME off: processor stopped dead
  kCycleStop,    // reached the requested stop_cycles
  kInsnBp,       // armed instruction breakpoint hit (before execution)
  kDataBp,       // armed data breakpoint hit (after access)
  kIdle,         // nothing queued to run
};

struct Event {
  EventKind kind = EventKind::kIdle;
  u32 ret = 0;
  CrashReport crash{};
  isa::DataBpHit hit{};
};

/// Cooperative harness interrupt, shared between a Machine and the
/// campaign supervisor's wall-clock watchdog.  Machine::run polls
/// `requested` between steps and throws kfi::StallInterrupt when it is
/// set, so a livelocked simulation can be pulled out of run() without
/// killing the process; `step_budget` (0 = off) additionally bounds the
/// steps one run() call may execute, catching livelocks that stop
/// advancing the cycle counter entirely.  After a StallInterrupt the
/// machine is mid-run garbage; restore a snapshot before reusing it.
struct HarnessInterrupt {
  std::atomic<bool> requested{false};
  u64 step_budget = 0;
};

/// Interception seam at the syscall boundary: called once per completed
/// system call with the kernel's natural return value, before the trace
/// sink observes it.  Return true after overwriting *ret to force a
/// different result (the machine writes it back into the return register
/// so the workload sees the forced value); return false to leave the
/// result untouched.  Null-guarded like the trace sink — the default path
/// pays one pointer test, no virtual dispatch.  Glue-generated error
/// returns (stray-trap ENOSYS) never reach the hook: those are harness
/// artifacts, not kernel results.
class SyscallResultHook {
 public:
  virtual ~SyscallResultHook() = default;
  virtual bool on_syscall_result(Syscall nr, u32* ret) = 0;
};

struct MachineOptions {
  /// Cycles between timer ticks (the 100Hz-ish decrementer / PIT).
  u64 timer_period = 1'000'000;
  /// Mean simulated user-mode cycles charged between system calls.
  u64 user_cycles_mean = 30'000;
  /// G4 exception-entry stack-range checking wrapper (ablation X2).
  bool g4_stack_wrapper = true;
  /// Paper-Section-7 PUSH/POP stack-limit extension on the P4 (ablation X1).
  bool p4_stack_limit_check = false;
  /// SPINLOCK_DEBUG magic checks in the kernel build (ablation X3).
  bool spinlock_debug = true;
  /// Seed for runtime jitter (user time, exception-stage costs).
  u64 seed = 0x1234;
  /// Dirty-page snapshot restore.  Also bit-exact; off forces the
  /// O(memory) full-copy restore the parity tests compare against.
  bool fast_reboot = true;
  /// Superblock execution: cache straight-line runs of predecoded
  /// instructions and dispatch them through per-op handler pointers.
  /// Bit-exact: off single-steps through the uncached decoder, and results
  /// must not change (the fast-path parity tests enforce it); off exists
  /// only as the reference those tests compare against.
  bool superblock = true;
};

/// Snapshot of a whole machine (memory + CPU + runtime), used to "reboot"
/// between injections in microseconds.  Memory is a shared immutable
/// buffer: copying a MachineSnapshot (e.g. handing the boot snapshot to a
/// watchdog) no longer duplicates the whole RAM image.
struct MachineSnapshot {
  mem::PhysicalMemory::SnapshotPtr memory;
  isa::CpuSnapshot cpu;
  u64 next_timer = 0;
  u64 user_cycles = 0;
  std::array<u64, 4> rng_state{};
};

class Machine {
 public:
  /// Build the kernel image (codegen) and boot.  For one-off machines.
  Machine(isa::Arch arch, MachineOptions options);
  /// Boot from an already-built image, skipping codegen entirely.  This is
  /// the cheap-replication path the parallel campaign engine uses: every
  /// worker Machine shares one immutable image and only pays for its own
  /// memory + boot.
  Machine(isa::Arch arch, MachineOptions options, kir::ImagePtr image);
  /// Boot by adopting another machine's boot snapshot instead of writing a
  /// fresh memory image.  The worker starts with ZERO private
  /// pages — every page aliases the donor's shared snapshot buffer — which
  /// is what makes a 64-worker engine's resident memory sublinear in the
  /// worker count.  The snapshot must come from a machine built on the
  /// same image with the same options.
  Machine(isa::Arch arch, MachineOptions options, kir::ImagePtr image,
          const MachineSnapshot& boot_snap);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  isa::Arch arch() const { return arch_; }
  isa::CpuCore& cpu() { return *cpu_; }
  mem::AddressSpace& space() { return space_; }
  const kir::Image& image() const { return *image_; }
  const kir::ImagePtr& shared_image() const { return image_; }
  const MachineOptions& options() const { return options_; }

  /// Queue one system call (sets up the kernel entry frame and any timer
  /// ticks that accrued during the simulated user time).  Must be idle.
  void begin_syscall(Syscall nr, u32 a0 = 0, u32 a1 = 0, u32 a2 = 0);

  /// Execute until an event occurs or `stop_cycles` is reached (0 = no
  /// cycle stop).  Breakpoint events leave the machine resumable.
  Event run(u64 stop_cycles = 0);

  bool idle() const { return !syscall_active_ && glue_stack_.empty(); }

  /// Attach (or detach, with nullptr) the supervisor's interrupt channel.
  /// The pointee must outlive the machine or a later set call.
  void set_harness_interrupt(HarnessInterrupt* interrupt) {
    harness_interrupt_ = interrupt;
  }

  /// Attach (or detach, with nullptr) an error-propagation trace sink.
  /// Forwards to the CPU for instruction-level events; the machine itself
  /// reports the runtime glue's context save/restore and privilege
  /// transitions.  Strictly observational: simulation results are
  /// bit-identical with or without a sink attached.
  void set_trace_sink(trace::TraceSink* sink);

  /// Attach (or detach, with nullptr) a syscall-result interception hook.
  /// The pointee must outlive the machine or a later set call.  With no
  /// hook — or an attached hook that declines every call — simulation
  /// results are bit-identical to a hook-free machine.
  void set_syscall_result_hook(SyscallResultHook* hook) {
    result_hook_ = hook;
  }

  /// Total simulated user-mode cycles charged so far (for estimating the
  /// kernel-time fraction of wall-clock, used by the register injector).
  u64 user_cycles() const { return user_cycles_total_; }

  /// Convenience: run one syscall to completion (no breakpoints in play).
  Event syscall(Syscall nr, u32 a0 = 0, u32 a1 = 0, u32 a2 = 0,
                u64 budget_cycles = 200'000'000);

  // --- introspection / experiment support ---
  u32 read_global(const std::string& object, u32 index = 0,
                  const std::string& field = "") const;
  void write_global(const std::string& object, u32 value, u32 index = 0,
                    const std::string& field = "");
  Addr global_field_addr(const std::string& object, u32 index,
                         const std::string& field) const;
  u32 current_task() const;
  /// Live stack pointer and configured stack range of a task.
  Addr task_stack_base(u32 task) const {
    return stack_base(arch_, task);
  }
  Addr task_stack_top(u32 task) const { return stack_top(arch_, task); }

  /// Per-function entry counters (enable before running a profile pass).
  void set_profiling(bool enabled);
  const std::vector<u64>& profile_counts() const { return profile_counts_; }

  /// Non-const: taking a snapshot (re)establishes the memory's dirty-page
  /// restore baseline.
  MachineSnapshot snapshot();
  void restore(const MachineSnapshot& snap);

  /// The snapshot taken right after boot (the "reboot" target).
  const MachineSnapshot& boot_snapshot() const { return boot_snapshot_; }

 private:
  /// Tag for the constructor both public ones share: it builds the CPU,
  /// maps the address space and caches the image's symbols, but neither
  /// boots nor adopts a snapshot.
  struct Unbooted {};
  Machine(isa::Arch arch, MachineOptions options, kir::ImagePtr image,
          Unbooted);

  enum class GlueKind : u8 { kSyscall, kIsr };
  struct GlueFrame {
    GlueKind kind;
    bool from_user = false;
  };
  struct PendingSyscall {
    u32 nr, a0, a1, a2;
  };

  void boot();
  void map_address_space();
  void write_glue_stubs();
  void setup_syscall_frame(const PendingSyscall& req);
  void enter_isr(bool from_user);
  bool isr_return();      // false => fatal raised into fatal_
  bool syscall_return(u32& ret_out);
  void maybe_deliver_timer();
  bool interrupts_enabled() const;
  Event make_crash_event(const isa::Trap& trap);
  bool sp_out_of_any_stack(Addr sp) const;
  u64 jitter(u64 lo, u64 hi);
  Addr glue_addr(u32 offset) const { return kGlueBase + offset; }

  isa::Arch arch_;
  MachineOptions options_;
  mem::AddressSpace space_;
  kir::ImagePtr image_;
  std::unique_ptr<isa::CpuCore> cpu_;
  cisca::CiscaCpu* cisca_cpu_ = nullptr;  // set when arch == kCisca
  riscf::RiscfCpu* riscf_cpu_ = nullptr;  // set when arch == kRiscf
  std::unique_ptr<kir::Backend> helper_backend_;  // prepare_initial_stack
  std::unordered_map<Addr, u32> entry_map_;       // function entry profiling
  Rng rng_;

  // Cached symbol info.
  Addr dispatch_entry_ = 0;
  Addr timer_entry_ = 0;
  Addr current_addr_ = 0;

  // Runtime state.
  std::vector<GlueFrame> glue_stack_;
  std::optional<PendingSyscall> pending_syscall_;
  u32 pending_user_ticks_ = 0;
  bool syscall_active_ = false;
  u64 next_timer_ = 0;
  u64 user_cycles_total_ = 0;
  u32 expected_sprg2_ = 0;
  std::optional<isa::Trap> fatal_pending_;  // raised by runtime glue

  // Profiling.
  bool profiling_ = false;
  std::vector<u64> profile_counts_;

  HarnessInterrupt* harness_interrupt_ = nullptr;
  trace::TraceSink* trace_ = nullptr;
  SyscallResultHook* result_hook_ = nullptr;
  u32 current_syscall_nr_ = 0;  // nr of the in-flight syscall (hook arg)

  MachineSnapshot boot_snapshot_;
};

/// Build and finalize a kernel image for the given architecture (exposed
/// for tests and decoder studies that want the image without a Machine).
kir::Image build_kernel_image(isa::Arch arch, bool spinlock_debug = true);

/// Build an image once for sharing across Machines (the campaign engine's
/// one-codegen-per-campaign path).
kir::ImagePtr build_shared_kernel_image(isa::Arch arch,
                                        bool spinlock_debug = true);

/// Register slot carrying the syscall return value on `arch` (eax / r3);
/// the slot a forced-result injector seeds in the taint engine.
trace::RegSlot syscall_result_slot(isa::Arch arch);

}  // namespace kfi::kernel
