// A TraceSink that records every hook call, for tests that compare two
// executions event for event (e.g. block dispatch against single steps).
#pragma once

#include <array>
#include <vector>

#include "trace/sink.hpp"

namespace kfi::trace {

class EventLog final : public TraceSink {
 public:
  using Event = std::array<u32, 7>;  // hook id, then its arguments

  std::vector<Event> events;

  void on_insn_fetch(RegSlot pc_slot, Addr pc, u32 phys1, u32 len1, u32 phys2,
                     u32 len2) override {
    events.push_back({0, pc_slot, pc, phys1, len1, phys2, len2});
  }
  void on_reg_read(RegSlot slot) override { events.push_back({1, slot}); }
  void on_reg_write(RegSlot slot) override { events.push_back({2, slot}); }
  void on_reg_merge(RegSlot slot) override { events.push_back({3, slot}); }
  void on_mem_read(Addr va, u32 phys, u32 len) override {
    events.push_back({4, va, phys, len});
  }
  void on_mem_write(Addr va, u32 phys, u32 len) override {
    events.push_back({5, va, phys, len});
  }
  void on_branch_decision() override { events.push_back({6}); }
  void on_priv_transition(PrivEvent ev) override {
    events.push_back({7, static_cast<u32>(ev)});
  }
  void on_ctx_save(RegSlot slot, u32 phys) override {
    events.push_back({8, slot, phys});
  }
  void on_ctx_restore(RegSlot slot, u32 phys) override {
    events.push_back({9, slot, phys});
  }
  void on_glue_reg_set(RegSlot slot) override { events.push_back({10, slot}); }
  void on_glue_mem_set(u32 phys, u32 len) override {
    events.push_back({11, phys, len});
  }
  void on_glue_reg_copy(RegSlot dst, RegSlot src) override {
    events.push_back({12, dst, src});
  }
  void on_syscall_result(RegSlot slot) override {
    events.push_back({13, slot});
  }
};

}  // namespace kfi::trace
