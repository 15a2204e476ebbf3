// Instruction-level interpreter for the cisca (P4-like) processor.
//
// Faithful to the properties the paper's analysis rests on:
//   * variable-length fetch/decode, so corrupted text re-aligns the stream
//     (Figure 14) — the CPU re-fetches and re-decodes from memory on every
//     step, so injected text bits take effect exactly like on hardware;
//   * 8/16/32-bit memory operands with packed kernel data (the reason data
//     and stack errors manifest more than on the G4);
//   * IA-32-style exceptions with NO stack-overflow report: a corrupted ESP
//     simply keeps running until something faults (Section 5.1);
//   * protected-mode state in CR0 and selector-checked FS/GS segments, so
//     system-register flips surface as #GP/#TS exactly as in Section 5.2;
//   * a cycle counter standing in for the performance registers used to
//     measure cycles-to-crash.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cisca/cause.hpp"
#include "cisca/decode.hpp"
#include "cisca/regs.hpp"
#include "isa/superblock.hpp"
#include "mem/address_space.hpp"

namespace kfi::cisca {

/// One descriptor in the simulated GDT: valid FS/GS selectors map to a
/// base+limit window; anything else #GPs on use.
struct SegDescriptor {
  u32 selector;
  u32 base;
  u32 limit;  // highest valid offset
};

class CiscaSysRegs;  // defined in sysregs.hpp
struct CiscaOps;     // per-op execute handlers (cpu.cpp)

class CiscaCpu final : public isa::SuperblockEngine<CiscaCpu, Insn> {
 public:
  /// Optional hardware extension from the paper's Section 7 proposal:
  /// extend PUSH/POP semantics to check ESP against the current kernel
  /// stack bounds and raise an explicit fault.  Off by default (faithful
  /// P4); the ablation bench turns it on.
  struct Options {
    bool stack_limit_check = false;
  };

  explicit CiscaCpu(mem::AddressSpace& space) : CiscaCpu(space, Options{}) {}
  CiscaCpu(mem::AddressSpace& space, Options options);
  ~CiscaCpu() override;

  CiscaCpu(const CiscaCpu&) = delete;
  CiscaCpu& operator=(const CiscaCpu&) = delete;

  // isa::CpuCore
  Addr pc() const override { return regs_.eip; }
  void set_pc(Addr pc) override { regs_.eip = pc; }
  isa::SystemRegisterBank& sysregs() override;
  Addr stack_pointer() const override { return regs_.gpr[kEsp]; }
  isa::CpuSnapshot snapshot() const override;
  void restore(const isa::CpuSnapshot& snap) override;
  trace::RegSlot sysreg_slot(u32 index) const override;

  RegFile& regs() { return regs_; }
  const RegFile& regs() const { return regs_; }

  /// Set the bounds used by the optional PUSH/POP stack-limit extension.
  void set_stack_bounds(Addr lo, Addr hi) {
    stack_lo_ = lo;
    stack_hi_ = hi;
  }
  const Options& options() const { return options_; }

  /// Decode (without executing) the instruction at `pc`; diagnostics only.
  DecodeResult decode_at(Addr pc) const;

 private:
  using Engine = isa::SuperblockEngine<CiscaCpu, Insn>;
  friend Engine;
  friend class CiscaSysRegs;
  friend struct CiscaOps;

  // Superblock-engine hooks (see isa/superblock.hpp).  Blocks never leave
  // their first physical page: each member instruction's full decode
  // window must fit in the page, so re-aligned corrupted streams still
  // decode identically.
  bool block_entry(u32* phys0) const;
  static u32 block_index(u32 phys0) {
    return phys0 & (kSuperblockEntries - 1);
  }
  void build_block(std::vector<BlockInsn>& insns, Addr vpc, u32 phys0) const;
  static bool block_terminator(const Insn& insn);
  BlockInsn fetch_decode();
  void trace_fetch(const BlockInsn& bi) {
    // Block instructions never straddle pages (see build_block), so the
    // span is always single-page — same bytes as the step() hook.
    sink_->on_insn_fetch(kSlotEip, regs_.eip, bi.phys, bi.insn.length, 0, 0);
  }
  void trace_retired(const Insn& /*insn*/) {}
  /// The trap raised or delivered at the current EIP; a page fault also
  /// loads CR2.
  isa::Trap make_trap(Cause cause, Addr addr, bool has_addr, u32 aux);

  FetchWindow fetch_window(Addr pc) const;
  u32 effective_addr(const MemOperand& mem);
  u32 resolve_seg_base(SegOverride seg, u32 offset);
  u32 read_mem(Addr addr, u8 width);
  void write_mem(Addr addr, u8 width, u32 value);
  u32 read_operand(const Operand& op, u8 width);
  void write_operand(const Operand& op, u8 width, u32 value);
  u32 read_reg(u8 reg, u8 width) const;
  void write_reg(u8 reg, u8 width, u32 value);
  void push32(u32 value);
  u32 pop32();
  void check_stack_extension(Addr new_esp);
  void set_flags_logic(u32 result, u8 width);
  void set_flags_add(u64 a, u64 b, u64 carry_in, u8 width);
  void set_flags_sub(u64 a, u64 b, u64 borrow_in, u8 width);
  bool eval_cond(u8 cond) const;

  Options options_;
  RegFile regs_;
  Addr stack_lo_ = 0, stack_hi_ = 0;
  std::unique_ptr<CiscaSysRegs> sysregs_;
};

/// The simulated GDT entries for FS/GS (fixed at boot, like the kernel's).
const SegDescriptor* lookup_descriptor(u32 selector);

}  // namespace kfi::cisca

// The engine is compiled once, in cpu.cpp, beside the hooks it inlines.
extern template class kfi::isa::SuperblockEngine<kfi::cisca::CiscaCpu,
                                                 kfi::cisca::Insn>;
