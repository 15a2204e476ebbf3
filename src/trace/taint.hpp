// TaintEngine: shadow-state taint tracking from flip site to failure.
//
// One shadow byte per register slot and a sparse shadow map over touched
// physical memory.  The injector seeds a mark at the exact flipped bit's
// byte; the CPU hooks then drive a conservative per-instruction dataflow:
// every value consumed by the current instruction folds its shadow depth
// into an accumulator, and every value the instruction produces inherits
// accumulator-depth + 1.  An untainted result *clears* the destination's
// shadow — that is the silent-overwrite (fail-silence) signal the paper
// could only infer from golden-run comparison.
//
// Shadow depth is the longest producer->consumer chain from the seed
// (saturating at 255), so the summary's max_depth extends the Fig. 16
// latency analysis with a propagation-distance axis.
//
// Strictly observational: no hook mutates simulator state, consumes
// entropy, or charges cycles, so result_fingerprint is bit-identical with
// tracing on or off (enforced by the propagation and fast-path parity
// tests).
#pragma once

#include <array>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "trace/sink.hpp"
#include "trace/summary.hpp"

namespace kfi::trace {

class TaintEngine final : public TraceSink {
 public:
  /// Upper bound on per-CPU register slots (cisca uses 28, riscf 136).
  static constexpr u32 kMaxRegSlots = 160;

  /// Maps a virtual address to a kernel data-object id (>= 0) or -1 when
  /// the address is not inside a named object.  Used to detect taint
  /// crossing into other subsystems' data; optional.
  using ObjectClassifier = std::function<i32(Addr)>;

  void set_object_classifier(ObjectClassifier fn) { classify_ = std::move(fn); }

  /// Clear all shadow state and counters (call at the start of each run).
  void reset();

  // --- Seeding (called by the injector at the flip site) ---------------
  void seed_register(RegSlot slot);
  /// Seed `len` bytes starting at physical `phys`; `va` names the site
  /// for object classification.
  void seed_memory(Addr va, u32 phys, u32 len);

  /// Digest the trace; valid until the next reset().
  PropagationSummary finalize() const;

  // --- Raw-state inspectors (unit tests) -------------------------------
  u32 reg_depth(RegSlot slot) const { return reg_.at(slot); }
  u32 mem_depth(u32 phys) const;
  u64 insns() const { return insns_; }
  u32 tainted_regs() const { return tainted_reg_count_; }
  u32 tainted_bytes() const { return static_cast<u32>(mem_.size()); }

  // --- TraceSink --------------------------------------------------------
  void on_insn_fetch(RegSlot pc_slot, Addr pc, u32 phys1, u32 len1, u32 phys2,
                     u32 len2) override;
  void on_reg_read(RegSlot slot) override;
  void on_reg_write(RegSlot slot) override;
  void on_reg_merge(RegSlot slot) override;
  void on_mem_read(Addr va, u32 phys, u32 len) override;
  void on_mem_write(Addr va, u32 phys, u32 len) override;
  void on_branch_decision() override;
  void on_priv_transition(PrivEvent ev) override;
  void on_ctx_save(RegSlot slot, u32 phys) override;
  void on_ctx_restore(RegSlot slot, u32 phys) override;
  void on_glue_reg_set(RegSlot slot) override;
  void on_glue_mem_set(u32 phys, u32 len) override;
  void on_glue_reg_copy(RegSlot dst, RegSlot src) override;
  void on_syscall_result(RegSlot slot) override;

 private:
  static constexpr u8 kMaxDepth = 255;

  bool any_live() const { return tainted_reg_count_ > 0 || !mem_.empty(); }
  u8 propagated_depth() const;
  void use(u8 depth);                      // tainted value consumed
  void set_reg(RegSlot slot, u8 depth);    // shadow store with bookkeeping
  void set_byte(u32 phys, u8 depth);
  u8 mem_fold(u32 phys, u32 len) const;    // max depth over a byte range
  void classify_write(Addr va);

  std::array<u8, kMaxRegSlots> reg_ = {};
  std::unordered_map<u32, u8> mem_;  // physical byte -> depth
  ObjectClassifier classify_;

  u8 acc_ = 0;      // taint depth consumed by the current instruction
  u64 insns_ = 0;   // instructions since reset

  bool seeded_ = false;
  u64 seed_insn_ = 0;
  i32 seed_object_ = -1;
  bool used_ = false;
  u64 first_use_insn_ = 0;
  u8 max_depth_ = 0;
  u32 tainted_reg_count_ = 0;
  u32 tainted_regs_peak_ = 0;
  u32 tainted_bytes_peak_ = 0;
  u64 tainted_reads_ = 0;
  u64 tainted_writes_ = 0;
  u64 tainted_branches_ = 0;
  u64 pc_tainted_insns_ = 0;
  u64 silent_overwrites_ = 0;
  bool syscall_result_tainted_ = false;
  u32 priv_transitions_ = 0;
  std::unordered_set<i32> crossed_objects_;
};

}  // namespace kfi::trace
