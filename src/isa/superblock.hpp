// The superblock engine both CPU models run on.
//
// The G4- and P4-like models differ in decode and instruction semantics
// only; everything around decode exists once, here: the superblock cache
// (straight-line runs of predecoded instructions with pre-resolved per-op
// handlers, direct-mapped on the physical address of their first
// instruction and validated against that page's write version), its
// dispatch loop, pending-trap delivery, and the step() skeleton.  A CPU
// model derives from SuperblockEngine<Cpu, Insn> (CRTP), stays `final`,
// and supplies these non-virtual hooks, which the engine may call while
// they are private (the model befriends its engine):
//
//   bool block_entry(u32* phys0)
//       Dispatch guard: true with the physical address of the pc when a
//       block may start there; false sends the dispatch to step(), which
//       raises whatever the guard refused.
//   static u32 block_index(u32 phys0)
//       The cache slot of a block starting at phys0.
//   void build_block(std::vector<BlockInsn>& insns, Addr vpc, u32 phys0)
//       Decode the straight-line run at vpc/phys0 into `insns` (at most
//       kMaxBlockInsns, never leaving phys0's page); leaving it empty
//       means this pc single-steps.
//   BlockInsn fetch_decode()
//       step()'s uncached fetch and decode of the instruction at the pc:
//       raises the fetch-side traps, counts the decode in decode_stats_,
//       and reports the fetch to the trace sink.
//   void trace_fetch(const BlockInsn& bi)
//       A block member's fetch (and pre-execute register reads) for the
//       trace sink; called only with a sink attached.
//   void trace_retired(const Insn& insn)
//       After an instruction retires without a trap, with a sink attached.
//   isa::Trap make_trap(Cause cause, Addr addr, bool has_addr, u32 aux)
//       Build an arch trap, with its register side effects.
//
// The per-op handler pointer is the only indirect call per instruction.
#pragma once

#include <vector>

#include "isa/cpu.hpp"
#include "mem/address_space.hpp"

namespace kfi::isa {

template <class Cpu, class Insn>
class SuperblockEngine : public CpuCore {
 public:
  StepResult step() final {
    StepResult result;
    if (debug_.check_insn_bp(cpu().pc())) {
      result.status = StepStatus::kInsnBp;
      return result;
    }
    guarded(result, [&] { retire(cpu().fetch_decode(), result); });
    return result;
  }

  /// Dispatches the cached block at the pc (building it on a miss), or
  /// single-steps where no block can start.  See CpuCore::step_block.
  StepResult step_block(const BlockLimits& limits, u64* consumed) final {
    *consumed = 1;
    // Same order as step(): the breakpoint check precedes everything.  The
    // single-step fallbacks re-check it harmlessly (a non-matching check
    // has no effect, and a matching one already returned here).
    if (debug_.check_insn_bp(cpu().pc())) {
      StepResult result;
      result.status = StepStatus::kInsnBp;
      return result;
    }
    u32 phys0 = 0;
    if (!cpu().block_entry(&phys0)) return step();
    const Superblock* blk = lookup(phys0);
    if (blk == nullptr) return step();
    ++sb_stats_.dispatches;

    StepResult result;
    const u64 cycle_bound =
        limits.cycle_bound == 0 ? ~0ull : limits.cycle_bound;
    const u64 max_insns = limits.max_insns == 0 ? ~0ull : limits.max_insns;
    const mem::PhysicalMemory& pm = space_.phys();
    const u64 ver = blk->ver;
    const u32 page = blk->page;
    const u32 n = static_cast<u32>(blk->insns.size());
    // No instruction arms the breakpoint (only the harness does, between
    // run() calls), so an unarmed unit at dispatch stays unarmed for the
    // whole block and the per-insn check can be skipped.
    const bool bp_armed = debug_.insn_bp_armed();
    u64 done = 0;
    bool bp_stop = false;
    guarded(result, [&] {
      for (u32 i = 0; i < n; ++i) {
        if (i != 0) {
          // The machine loop's per-iteration order, inlined: step budget,
          // cycle-driven events, then the instruction breakpoint.
          if (done >= max_insns) break;
          if (cycles_ >= cycle_bound) break;
          if (bp_armed && debug_.check_insn_bp(cpu().pc())) {
            result.status = StepStatus::kInsnBp;
            bp_stop = true;
            break;
          }
        }
        const BlockInsn& bi = blk->insns[i];
        if (sink_ != nullptr) cpu().trace_fetch(bi);
        if (retire(bi, result)) break;
        ++done;
        if (result.num_data_hits > 0) break;
        if (halted_pending_) break;
        // A store into this block's own page (self-modification, injector
        // flip) may have rewritten the remaining cached instructions:
        // re-dispatch so they re-decode from current bytes.
        if (pm.page_version(page) != ver) break;
      }
    });
    sb_stats_.block_insns += done;
    // Executed instructions each stand for one machine-loop iteration; a
    // trap or breakpoint stop consumed one more (exactly what the
    // per-step loop charges against harness step budgets).
    *consumed = result.status == StepStatus::kTrap || bp_stop ? done + 1 : done;
    return result;
  }

  Cycles cycles() const final { return cycles_; }
  void add_cycles(Cycles n) final { cycles_ += n; }
  DebugUnit& debug() final { return debug_; }
  DecodeCacheStats decode_cache_stats() const final { return decode_stats_; }
  SuperblockStats superblock_stats() const final { return sb_stats_; }
  void set_trace_sink(trace::TraceSink* sink) final { sink_ = sink; }
  mem::AddressSpace& space() { return space_; }

 protected:
  using Handler = void (*)(Cpu&, const Insn&);
  struct BlockInsn {
    Insn insn{};
    Handler fn = nullptr;
    u32 phys = 0;  // physical address of the first byte
  };
  static constexpr u32 kSuperblockEntries = 2048;
  static constexpr u32 kMaxBlockInsns = 32;

  explicit SuperblockEngine(mem::AddressSpace& space) : space_(space) {}

  /// Traps come in two kinds.  `raise` aborts an instruction midway (a
  /// fault in a memory access, a bad selector, a privileged op) by
  /// throwing to the step()/step_block() catch.  `deliver` is for a trap
  /// that is the instruction's last act (a system call): it only records
  /// the trap, and step()/step_block() report it exactly as the catch
  /// would, skipping trace_retired likewise.  Both build the trap through
  /// the model's make_trap.
  template <class Cause>
  [[noreturn]] void raise(Cause cause, Addr addr = 0, bool has_addr = false,
                          u32 aux = 0) {
    throw TrapException{cpu().make_trap(cause, addr, has_addr, aux)};
  }
  template <class Cause>
  void deliver(Cause cause, Addr addr = 0, bool has_addr = false,
               u32 aux = 0) {
    pending_trap_ = cpu().make_trap(cause, addr, has_addr, aux);
    trap_pending_ = true;
  }

  /// Report a completed data access to the debug unit, which records a
  /// data-breakpoint hit in the running step's result.
  void note_data_access(Addr addr, u32 width, bool is_write) {
    if (current_result_ != nullptr && debug_.data_bp_any()) {
      debug_.record_access(addr, width, is_write, *current_result_);
    }
  }

  // Trace-hook shorthands: one predictable null check when tracing is off.
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
  DebugUnit debug_;
  Cycles cycles_ = 0;
  trace::TraceSink* sink_ = nullptr;
  /// Set by a halt instruction; the step that retired it reports kHalted.
  bool halted_pending_ = false;
  DecodeCacheStats decode_stats_;  // step() decodes, counted as misses

 private:
  struct TrapException {
    Trap trap;
  };
  struct Superblock {
    u32 tag = kNoTag;  // physical address of the first instruction
    Addr vpc = 0;      // virtual pc (guards against phys aliasing)
    u32 page = 0;
    u64 ver = 0;
    std::vector<BlockInsn> insns;
  };
  static constexpr u32 kNoTag = 0xFFFFFFFFu;  // beyond any physical memory

  Cpu& cpu() { return static_cast<Cpu&>(*this); }

  /// The valid block starting at phys0 and the pc, (re)built on a miss or
  /// a stale page version; nullptr when none can start there.  The table
  /// is allocated by the first dispatch.
  const Superblock* lookup(u32 phys0) {
    if (sblocks_.empty()) sblocks_.resize(kSuperblockEntries);
    Superblock& blk = sblocks_[Cpu::block_index(phys0)];
    const Addr vpc = cpu().pc();
    const mem::PhysicalMemory& pm = space_.phys();
    if (blk.tag == phys0 && blk.vpc == vpc) {
      if (blk.ver == pm.page_version(blk.page)) {
        ++sb_stats_.hits;
        return &blk;
      }
      // A store, injected flip or reboot rewrote the block's page.
      ++sb_stats_.invalidations;
    }
    ++sb_stats_.misses;
    blk.tag = kNoTag;
    blk.insns.clear();
    blk.vpc = vpc;
    blk.page = phys0 >> mem::kPageShift;
    blk.ver = pm.page_version(blk.page);
    cpu().build_block(blk.insns, vpc, phys0);
    if (blk.insns.empty()) return nullptr;
    blk.tag = phys0;
    return &blk;
  }

  /// Execute one decoded instruction and charge its cycle; true when it
  /// delivered a trap (now in `result`).
  bool retire(const BlockInsn& bi, StepResult& result) {
    bi.fn(cpu(), bi.insn);
    cycles_ += 1;
    if (take_pending_trap(result)) return true;
    if (sink_ != nullptr) cpu().trace_retired(bi.insn);
    return false;
  }

  bool take_pending_trap(StepResult& result) {
    if (!trap_pending_) return false;
    trap_pending_ = false;
    result.status = StepStatus::kTrap;
    result.trap = pending_trap_;
    return true;
  }

  /// The step skeleton shared by step() and step_block(): data accesses
  /// record into `result` while `body` runs, a raised trap becomes kTrap
  /// and costs its instruction's cycle, and a retired halt reports
  /// kHalted.
  template <class Body>
  void guarded(StepResult& result, Body&& body) {
    current_result_ = &result;
    try {
      body();
    } catch (const TrapException& te) {
      result.status = StepStatus::kTrap;
      result.trap = te.trap;
      cycles_ += 1;
    }
    if (result.status == StepStatus::kOk && halted_pending_) {
      halted_pending_ = false;
      result.status = StepStatus::kHalted;
    }
    current_result_ = nullptr;
  }

  StepResult* current_result_ = nullptr;
  bool trap_pending_ = false;
  Trap pending_trap_;
  std::vector<Superblock> sblocks_;
  SuperblockStats sb_stats_;
};

}  // namespace kfi::isa
