// Workload programs: the UnixBench stand-in.
//
// In the paper, UnixBench served three purposes: it exercised the kernel so
// injected errors could activate, its profile identified the hottest kernel
// functions (the code-injection targets), and instrumented benchmark
// programs detected fail-silence violations.  These workloads do the same:
// each is a deterministic script of system calls with host-side expected
// values; any wrong return value, wrong buffer contents, or inconsistent
// kernel counter at the end is a fail-silence violation.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernel/abi.hpp"
#include "kernel/machine.hpp"

namespace kfi::workload {

struct SyscallRequest {
  kernel::Syscall nr;
  u32 a0 = 0, a1 = 0, a2 = 0;
};

/// A deterministic benchmark program.  Usage per run:
///   reset(seed); while (auto r = next()) { issue; if (!check(...)) fsv; }
///   if (!final_check(...)) fsv;
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;

  /// Restart the script.  Must also (re)write any user-buffer inputs into
  /// the machine before the syscalls that consume them (done inside next()).
  virtual void reset(u64 seed) = 0;

  /// The next system call to issue, or nullopt when the script is done.
  /// May write input data into the machine's user-buffer region.
  virtual std::optional<SyscallRequest> next(kernel::Machine& machine) = 0;

  /// Validate the completed syscall (return value + output buffers).
  /// Returning false flags a fail-silence violation.
  virtual bool check(kernel::Machine& machine, u32 ret) = 0;

  /// Syscalls issued so far in this run.
  virtual u32 issued() const = 0;

  /// Workload-specific end-of-run state validation (e.g. no packet lost).
  virtual bool state_check(kernel::Machine& /*machine*/) { return true; }

  /// End-of-run validation.  Only externally observable state counts: the
  /// paper's benchmarks could not see kernel-internal bookkeeping, so a
  /// silently skewed internal counter is NOT a fail-silence violation.
  bool final_check(kernel::Machine& machine) { return state_check(machine); }

  /// Approximate syscall count per run (for budget estimation).
  virtual u32 length() const = 0;
};

/// The disk "pattern byte" formula baked into the kernel image; workloads
/// validate reads of pristine blocks against it.
constexpr u8 disk_pattern(u32 block, u32 offset) {
  return static_cast<u8>((block * 31 + offset * 7 + 3) & 0xFF);
}

/// Factory functions; `scale` multiplies the script length.
std::unique_ptr<Workload> make_fileops(u32 scale = 1);
std::unique_ptr<Workload> make_pipe_loop(u32 scale = 1);
std::unique_ptr<Workload> make_syscall_mix(u32 scale = 1);
std::unique_ptr<Workload> make_context_switch(u32 scale = 1);
std::unique_ptr<Workload> make_mem_hog(u32 scale = 1);

/// The full suite in UnixBench spirit: all of the above, interleaved into
/// one script.
std::unique_ptr<Workload> make_suite(u32 scale = 1);

}  // namespace kfi::workload
