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

#include "isa/superblock.hpp"
#include "mem/address_space.hpp"
#include "riscf/cause.hpp"
#include "riscf/insn.hpp"
#include "riscf/regs.hpp"

namespace kfi::riscf {

class RiscfSysRegs;  // defined in sysregs.hpp
struct RiscfOps;     // per-op execute handlers (cpu.cpp)

class RiscfCpu final : public isa::SuperblockEngine<RiscfCpu, Insn> {
 public:
  explicit RiscfCpu(mem::AddressSpace& space);
  ~RiscfCpu() override;

  RiscfCpu(const RiscfCpu&) = delete;
  RiscfCpu& operator=(const RiscfCpu&) = delete;

  // isa::CpuCore
  Addr pc() const override { return regs_.pc; }
  void set_pc(Addr pc) override { regs_.pc = pc; }
  isa::SystemRegisterBank& sysregs() override;
  Addr stack_pointer() const override { return regs_.gpr[kSp]; }
  isa::CpuSnapshot snapshot() const override;
  void restore(const isa::CpuSnapshot& snap) override;
  trace::RegSlot sysreg_slot(u32 index) const override;

  RegFile& regs() { return regs_; }
  const RegFile& regs() const { return regs_; }

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
  using Engine = isa::SuperblockEngine<RiscfCpu, Insn>;
  friend Engine;
  friend class RiscfSysRegs;
  friend struct RiscfOps;

  // Superblock-engine hooks (see isa/superblock.hpp).  Instructions are
  // fixed-size and aligned, so a block covers consecutive words of exactly
  // one physical page.
  bool block_entry(u32* phys0) const;
  static u32 block_index(u32 phys0) {
    return (phys0 >> 2) & (kSuperblockEntries - 1);
  }
  void build_block(std::vector<BlockInsn>& insns, Addr vpc, u32 phys0) const;
  static bool block_terminator(const Insn& insn);
  BlockInsn fetch_decode();
  void trace_fetch(const BlockInsn& bi) {
    // Fixed 4-byte aligned fetch: never straddles a page.
    sink_->on_insn_fetch(kSlotPc, regs_.pc, bi.phys, 4, 0, 0);
    trace_reads(bi.insn);
  }
  void trace_retired(const Insn& insn) { trace_writes(insn); }
  /// The trap raised or delivered at the current pc, with its DAR/DSISR
  /// and checkstop side effects.
  isa::Trap make_trap(Cause cause, Addr addr, bool has_addr, u32 aux);

  u32 read_mem(Addr addr, u8 width);
  void write_mem(Addr addr, u8 width, u32 value);
  void check_alignment(Addr ea, u8 width);
  void set_cr_field(u8 field, u32 bits4);
  void record_cr0(u32 result);
  void compare(u8 crfd, i64 a, i64 b);
  bool branch_cond(u8 bo, u8 bi);
  void taken_branch_check();
  void require_supervisor();

  /// Declarative register-flow passes around execute(): reads fold into
  /// the sink's per-instruction accumulator before the instruction runs,
  /// writes commit after it retires (skipped when the instruction traps,
  /// which matches the partial-retirement the trap leaves behind).  The
  /// four branch ops and the CR/SPR helpers hook themselves instead,
  /// because their register traffic depends on taken/not-taken outcomes.
  void trace_reads(const Insn& insn);
  void trace_writes(const Insn& insn);

  RegFile regs_;
  std::map<u32, u32> spr_storage_;  // inert supervisor SPRs (BATs, PMCs, ...)
  std::unique_ptr<RiscfSysRegs> sysregs_;
};

}  // namespace kfi::riscf

// The engine is compiled once, in cpu.cpp, beside the hooks it inlines.
extern template class kfi::isa::SuperblockEngine<kfi::riscf::RiscfCpu,
                                                 kfi::riscf::Insn>;
