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
#include "isa/cpu.hpp"
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

class CiscaCpu final : public isa::CpuCore {
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
  isa::StepResult step() override;
  Addr pc() const override { return regs_.eip; }
  void set_pc(Addr pc) override { regs_.eip = pc; }
  Cycles cycles() const override { return cycles_; }
  void add_cycles(Cycles n) override { cycles_ += n; }
  isa::DebugUnit& debug() override { return debug_; }
  isa::SystemRegisterBank& sysregs() override;
  Addr stack_pointer() const override { return regs_.gpr[kEsp]; }
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

  /// Set the bounds used by the optional PUSH/POP stack-limit extension.
  void set_stack_bounds(Addr lo, Addr hi) {
    stack_lo_ = lo;
    stack_hi_ = hi;
  }
  const Options& options() const { return options_; }

  /// Decode (without executing) the instruction at `pc`; diagnostics only.
  DecodeResult decode_at(Addr pc) const;

 private:
  friend class CiscaSysRegs;
  friend struct CiscaOps;
  struct TrapException {
    isa::Trap trap;
  };

  /// Superblock cache: straight-line runs of predecoded instructions plus
  /// their pre-resolved execute handlers, direct-mapped on the physical
  /// address of the first byte.  A block never leaves its first physical
  /// page (each member instruction's full decode window must fit in the
  /// page, so re-aligned corrupted streams still decode identically), and
  /// is valid only while that page's write version is unchanged, so
  /// stores, injected flips, and reboots into cached code force a rebuild
  /// lazily, with no store-side hooks.
  struct BlockInsn {
    Insn insn{};
    void (*fn)(CiscaCpu&, const Insn&) = nullptr;
    u32 phys = kNoPage;  // first-byte physical address (fetch-hook span)
  };
  struct Superblock {
    u32 tag = kNoPage;  // physical address of the first byte
    Addr vpc = 0;       // virtual pc (guards against phys aliasing)
    u32 page = 0;
    u64 ver = 0;
    std::vector<BlockInsn> insns;
  };
  static constexpr u32 kSuperblockEntries = 2048;
  static constexpr u32 kMaxBlockInsns = 32;

  /// (Re)build the block starting at vpc/phys0 in place; false when no
  /// block can start here (page-end decode window, invalid or faulting
  /// first instruction) and the caller must single-step.
  bool build_block(Superblock& blk, Addr vpc, u32 phys0);
  static bool block_terminator(const Insn& insn);

  /// Traps come in two kinds.  `raise` aborts an instruction midway (a
  /// fault in a memory access, a bad selector, a divide error) by
  /// throwing to the step()/step_block() catch.  `deliver` is for a trap
  /// that is the instruction's last act (`int`): it only records the trap,
  /// and step()/step_block() report it exactly as the catch would.  Both
  /// build the trap, with its register side effects, through make_trap.
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
  void execute(const Insn& insn);

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
  Options options_;
  RegFile regs_;
  isa::DebugUnit debug_;
  Cycles cycles_ = 0;
  isa::StepResult* current_result_ = nullptr;
  trace::TraceSink* sink_ = nullptr;
  Addr stack_lo_ = 0, stack_hi_ = 0;
  bool halted_pending_ = false;
  bool trap_pending_ = false;
  isa::Trap pending_trap_;
  isa::DecodeCacheStats decode_stats_;  // step() decodes, counted as misses
  bool sblocks_enabled_ = false;
  std::vector<Superblock> sblocks_;  // allocated when enabled
  isa::SuperblockStats sb_stats_;
  std::unique_ptr<CiscaSysRegs> sysregs_;
};

/// The simulated GDT entries for FS/GS (fixed at boot, like the kernel's).
const SegDescriptor* lookup_descriptor(u32 selector);

}  // namespace kfi::cisca
