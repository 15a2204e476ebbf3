// Instruction-level interpreter for the riscf (G4-like) processor.
//
// Faithful to the properties the paper's analysis rests on:
//   * fixed 32-bit big-endian instructions over a sparse opcode map, so a
//     text bit flip corrupts exactly one instruction and frequently lands
//     on a reserved encoding (illegal instruction, Figure 15);
//   * word-aligned memory access with alignment exceptions;
//   * supervisor state in the MSR — clearing IR or DR (address
//     translation) machine-checks immediately, as the paper observed;
//   * HID0's branch-target-instruction-cache enable: switching BTIC on
//     over invalid contents corrupts the next taken branch (Section 5.2);
//   * no divide trap (PPC division does not except — Table 4 has no
//     divide-error category);
//   * a cycle counter standing in for the performance monitor.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "isa/cpu.hpp"
#include "mem/address_space.hpp"
#include "riscf/cause.hpp"
#include "riscf/insn.hpp"
#include "riscf/regs.hpp"

namespace kfi::riscf {

class RiscfSysRegs;  // defined in sysregs.hpp
struct RiscfOps;     // per-op execute handlers (cpu.cpp)

class RiscfCpu final : public isa::CpuCore {
 public:
  explicit RiscfCpu(mem::AddressSpace& space);
  ~RiscfCpu() override;

  RiscfCpu(const RiscfCpu&) = delete;
  RiscfCpu& operator=(const RiscfCpu&) = delete;

  // isa::CpuCore
  isa::StepResult step() override;
  Addr pc() const override { return regs_.pc; }
  void set_pc(Addr pc) override { regs_.pc = pc; }
  Cycles cycles() const override { return cycles_; }
  void add_cycles(Cycles n) override { cycles_ += n; }
  isa::DebugUnit& debug() override { return debug_; }
  isa::SystemRegisterBank& sysregs() override;
  Addr stack_pointer() const override { return regs_.gpr[kSp]; }
  isa::CpuSnapshot snapshot() const override;
  void restore(const isa::CpuSnapshot& snap) override;
  isa::DecodeCacheStats decode_cache_stats() const override {
    return decode_stats_;
  }
  isa::StepResult step_block(const isa::BlockLimits& limits,
                             u64* consumed) override;
  void set_superblocks_enabled(bool enabled) override;
  bool superblocks_enabled() const override { return sblocks_enabled_; }
  isa::SuperblockStats superblock_stats() const override { return sb_stats_; }
  void set_trace_sink(trace::TraceSink* sink) override { sink_ = sink; }
  trace::RegSlot sysreg_slot(u32 index) const override;

  RegFile& regs() { return regs_; }
  const RegFile& regs() const { return regs_; }
  mem::AddressSpace& space() { return space_; }

  /// Trace slot for an SPR number (kNoSlot if unimplemented); defined in
  /// sysregs.cpp next to the bank enumeration it must stay in sync with.
  static trace::RegSlot spr_slot(u32 spr);

  /// Generic SPR access (also used by mfspr/mtspr execution).  Returns
  /// false if the SPR is not implemented.
  bool read_spr(u32 spr, u32& value) const;
  bool write_spr(u32 spr, u32 value);

  /// Decode (without executing) the word at `pc`; diagnostics only.
  Insn decode_at(Addr pc) const;

 private:
  friend class RiscfSysRegs;
  friend struct RiscfOps;
  struct TrapException {
    isa::Trap trap;
  };

  /// Superblock cache: straight-line runs of predecoded instructions plus
  /// their pre-resolved execute handlers, direct-mapped on the physical
  /// word address of the first instruction.  Instructions are fixed-size
  /// and aligned, so a block covers consecutive words of exactly one
  /// physical page and is valid only while that page's write version is
  /// unchanged — stores, injected flips, and reboots into cached code
  /// force a rebuild.
  struct BlockInsn {
    Insn insn{};
    void (*fn)(RiscfCpu&, const Insn&) = nullptr;
    u32 phys = 0;
  };
  struct Superblock {
    u32 tag = 0xFFFFFFFFu;  // physical address (never valid: unaligned)
    Addr vpc = 0;           // virtual pc (guards against phys aliasing)
    u32 page = 0;
    u64 ver = 0;
    std::vector<BlockInsn> insns;
  };
  static constexpr u32 kSuperblockEntries = 2048;
  static constexpr u32 kMaxBlockInsns = 32;

  /// (Re)build the block starting at vpc/phys0 in place; false when no
  /// block can start here (invalid first instruction) and the caller must
  /// single-step.
  bool build_block(Superblock& blk, Addr vpc, u32 phys0);
  static bool block_terminator(const Insn& insn);

  /// Traps come in two kinds.  `raise` aborts an instruction midway (a
  /// storage or alignment fault, a privileged op) by throwing to the
  /// step()/step_block() catch.  `deliver` is for a trap that is the
  /// instruction's last act (`sc`): it only records the trap, and
  /// step()/step_block() report it exactly as the catch would, skipping
  /// trace_writes likewise.  Both build the trap, with its DAR/DSISR and
  /// checkstop side effects, through make_trap.
  isa::Trap make_trap(Cause cause, Addr addr, bool has_addr, u32 aux);
  [[noreturn]] void raise(Cause cause, Addr addr = 0, bool has_addr = false,
                          u32 aux = 0);
  void deliver(Cause cause, Addr addr = 0, bool has_addr = false, u32 aux = 0);
  /// Move a delivered trap into `result` (status kTrap); false if none.
  bool take_pending_trap(isa::StepResult& result) {
    if (!trap_pending_) return false;
    trap_pending_ = false;
    result.status = isa::StepStatus::kTrap;
    result.trap = pending_trap_;
    return true;
  }
  u32 read_mem(Addr addr, u8 width);
  void write_mem(Addr addr, u8 width, u32 value);
  void check_alignment(Addr ea, u8 width);
  void set_cr_field(u8 field, u32 bits4);
  void record_cr0(u32 result);
  void compare(u8 crfd, i64 a, i64 b);
  bool branch_cond(u8 bo, u8 bi);
  void taken_branch_check();
  void require_supervisor();
  void execute(const Insn& insn);

  /// Declarative register-flow passes around execute(): reads fold into
  /// the sink's per-instruction accumulator before the instruction runs,
  /// writes commit after it retires (skipped when the instruction traps,
  /// which matches the partial-retirement the trap leaves behind).  The
  /// four branch ops and the CR/SPR helpers hook themselves instead,
  /// because their register traffic depends on taken/not-taken outcomes.
  void trace_reads(const Insn& insn);
  void trace_writes(const Insn& insn);

  // Trace-hook shorthands: one predictable null check when tracing is off,
  // mirroring the current_result_ guard on debug-access recording.
  void trace_rr(trace::RegSlot slot) const {
    if (sink_ != nullptr) sink_->on_reg_read(slot);
  }
  void trace_rw(trace::RegSlot slot) {
    if (sink_ != nullptr) sink_->on_reg_write(slot);
  }
  void trace_rm(trace::RegSlot slot) {
    if (sink_ != nullptr) sink_->on_reg_merge(slot);
  }
  void trace_branch() const {
    if (sink_ != nullptr) sink_->on_branch_decision();
  }

  mem::AddressSpace& space_;
  RegFile regs_;
  isa::DebugUnit debug_;
  Cycles cycles_ = 0;
  isa::StepResult* current_result_ = nullptr;
  trace::TraceSink* sink_ = nullptr;
  bool trap_pending_ = false;
  isa::Trap pending_trap_;
  std::map<u32, u32> spr_storage_;  // inert supervisor SPRs (BATs, PMCs, ...)
  isa::DecodeCacheStats decode_stats_;  // step() decodes, counted as misses
  bool sblocks_enabled_ = false;
  std::vector<Superblock> sblocks_;  // allocated when enabled
  isa::SuperblockStats sb_stats_;
  std::unique_ptr<RiscfSysRegs> sysregs_;
};

}  // namespace kfi::riscf
