// Superblock (multi-instruction trace) execution contract for cisca:
// dispatching a cached straight-line block through per-op handler pointers
// must be bit-identical to single-stepping — same register results, same
// cycle charges, same trap ordering — and a write into a cached block's
// page (an injected flip or the program's own store) must invalidate the
// block so the corrupted bytes re-decode.  Results are compared against a
// superblock-disabled CPU running the identical program.
#include <gtest/gtest.h>

#include "../trace/event_log.hpp"
#include "cisca/cpu.hpp"
#include "cisca/encode.hpp"
#include "mem/address_space.hpp"

namespace kfi::cisca {
namespace {

constexpr Addr kCode = 0x10000;
constexpr Addr kUnmapped = 0x20000;

struct Rig {
  mem::AddressSpace space{256 * 1024, mem::Endian::kLittle};
  CiscaCpu cpu{space};

  bool superblocks;

  explicit Rig(bool blocks) : superblocks(blocks) {
    space.map_region("code", kCode, 4096,
                     {.read = true, .write = true, .execute = true});
  }

  void load(const std::vector<u8>& bytes) {
    space.vwrite_bytes(kCode, bytes.data(), static_cast<u32>(bytes.size()));
    cpu.set_pc(kCode);
  }

  /// Drive the CPU the way the machine loop does: block dispatches with
  /// unbounded limits (or single steps without superblocks), stopping at
  /// the first non-kOk status.
  isa::StepResult run(u32 max_blocks = 200) {
    for (u32 i = 0; i < max_blocks; ++i) {
      u64 consumed = 1;
      const isa::StepResult r =
          superblocks ? cpu.step_block({}, &consumed) : cpu.step();
      if (r.status != isa::StepStatus::kOk) return r;
    }
    ADD_FAILURE() << "did not stop";
    return {};
  }
};

std::vector<u8> straight_line_program() {
  Asm a(kCode);
  a.mov_r_imm(kEax, 1);  // B8 imm32 at kCode + 0
  a.mov_r_imm(kEbx, 2);  // at kCode + 5
  a.mov_r_imm(kEcx, 3);  // at kCode + 10: imm byte at kCode + 11
  a.hlt();
  return a.finish();
}

TEST(CiscaSuperblockTest, InjectorFlipMidBlockIsReDecoded) {
  // The flip lands on the THIRD instruction of an already-cached block —
  // the block must be rebuilt, not just its first entry.
  Rig warm(true), cold(false);
  for (Rig* rig : {&warm, &cold}) {
    rig->load(straight_line_program());
    rig->run();
    ASSERT_EQ(rig->cpu.regs().gpr[kEcx], 3u);
    // The injector's path: flip bit 2 of the imm byte (3 -> 7).
    rig->space.vflip_bit(kCode + 11, 2);
    rig->cpu.set_pc(kCode);
    rig->run();
  }
  EXPECT_EQ(warm.cpu.regs().gpr[kEcx], 7u);
  EXPECT_EQ(warm.cpu.regs().gpr[kEcx], cold.cpu.regs().gpr[kEcx]);
  EXPECT_GE(warm.cpu.superblock_stats().invalidations, 1u);
  EXPECT_EQ(cold.cpu.superblock_stats().dispatches, 0u);
}

TEST(CiscaSuperblockTest, SelfModifyingStoreIsReDecoded) {
  // Pass 1 executes `mov eax, 1` (caching its block), patches its imm
  // byte to 7 with an ordinary store, and loops; pass 2 must execute the
  // patched instruction.
  Asm a(kCode);
  const auto start = a.new_label();
  const auto done = a.new_label();
  a.bind(start);
  a.mov_r_imm(kEax, 1);  // patched between passes
  a.alu_r_imm(Op::kCmp, kEbx, 0);
  a.jcc(kCondNE, done);
  a.mov_r_imm(kEbx, 1);
  a.mov_rm8_imm(MemOperand{.disp = static_cast<i32>(kCode + 1)}, 7);
  a.jmp(start);
  a.bind(done);
  a.hlt();
  const std::vector<u8> program = a.finish();

  Rig warm(true), cold(false);
  for (Rig* rig : {&warm, &cold}) {
    rig->load(program);
    rig->run();
  }
  EXPECT_EQ(warm.cpu.regs().gpr[kEax], 7u);
  EXPECT_EQ(warm.cpu.regs().gpr[kEax], cold.cpu.regs().gpr[kEax]);
  EXPECT_GE(warm.cpu.superblock_stats().invalidations, 1u);
}

TEST(CiscaSuperblockTest, UnmodifiedCodeHitsOnRedispatch) {
  Rig warm(true);
  warm.load(straight_line_program());
  warm.run();
  const auto first = warm.cpu.superblock_stats();
  EXPECT_GE(first.misses, 1u);
  warm.cpu.set_pc(kCode);
  warm.run();
  const auto second = warm.cpu.superblock_stats();
  EXPECT_EQ(second.misses, first.misses);  // re-dispatch came from the cache
  EXPECT_GT(second.hits, first.hits);
  EXPECT_EQ(second.invalidations, 0u);
  EXPECT_GT(second.mean_block_len(), 1.0);
}

TEST(CiscaSuperblockTest, BlockDispatchMatchesSingleSteppingInLockstep) {
  // Strongest equivalence check: after every block dispatch consuming k
  // iterations, k single steps on a superblock-free CPU must land in the
  // bit-identical register state at the same cycle count.
  Asm a(kCode);
  const auto start = a.new_label();
  const auto done = a.new_label();
  a.mov_r_imm(kEax, 0);
  a.mov_r_imm(kEcx, 5);
  a.bind(start);
  a.alu_r_imm(Op::kCmp, kEcx, 0);
  a.jcc(kCondE, done);
  a.alu_r_imm(Op::kAdd, kEax, 7);
  a.alu_r_imm(Op::kSub, kEcx, 1);
  a.jmp(start);
  a.bind(done);
  a.hlt();
  const std::vector<u8> program = a.finish();

  Rig blocked(true), stepped(false);
  blocked.load(program);
  stepped.load(program);
  for (u32 guard = 0; guard < 200; ++guard) {
    u64 consumed = 1;
    const isa::StepResult rb = blocked.cpu.step_block({}, &consumed);
    isa::StepResult rs;
    for (u64 k = 0; k < consumed; ++k) rs = stepped.cpu.step();
    ASSERT_EQ(rb.status, rs.status) << "dispatch " << guard;
    ASSERT_EQ(blocked.cpu.snapshot().words, stepped.cpu.snapshot().words)
        << "dispatch " << guard;
    ASSERT_EQ(blocked.cpu.cycles(), stepped.cpu.cycles())
        << "dispatch " << guard;
    if (rb.status != isa::StepStatus::kOk) return;
  }
  FAIL() << "did not stop";
}

TEST(CiscaSuperblockTest, MaxInsnsLimitBoundsTheDispatch) {
  // A step budget of 1 per dispatch degenerates to single-stepping.
  Rig rig(true);
  rig.load(straight_line_program());
  isa::BlockLimits limits;
  limits.max_insns = 1;
  for (u32 i = 0; i < 3; ++i) {
    u64 consumed = 0;
    ASSERT_EQ(rig.cpu.step_block(limits, &consumed).status,
              isa::StepStatus::kOk);
    EXPECT_EQ(consumed, 1u);
  }
  EXPECT_EQ(rig.cpu.regs().gpr[kEcx], 3u);
}

TEST(CiscaSuperblockTest, CycleBoundStopsMidBlock) {
  // The first instruction of a dispatch always executes (the machine loop
  // already passed its cycle checks); the bound stops the block before
  // the next one, exactly like the loop would have.
  Rig rig(true);
  rig.load(straight_line_program());
  isa::BlockLimits limits;
  limits.cycle_bound = rig.cpu.cycles() + 1;
  u64 consumed = 0;
  ASSERT_EQ(rig.cpu.step_block(limits, &consumed).status,
            isa::StepStatus::kOk);
  EXPECT_EQ(consumed, 1u);
  EXPECT_EQ(rig.cpu.regs().gpr[kEax], 1u);
  EXPECT_EQ(rig.cpu.regs().gpr[kEbx], 0u);  // second insn did not run
}

// --- Breakpoints inside a cached block -------------------------------------

constexpr Addr kData = 0x14000;

/// One dispatch on `blocked` against `consumed` single steps on `stepped`:
/// the same status, data hits, registers and cycles.
void expect_dispatch_matches(Rig& blocked, Rig& stepped, u64 want_consumed,
                             isa::StepStatus want_status) {
  const u64 hits = blocked.cpu.superblock_stats().hits;
  u64 consumed = 0;
  const isa::StepResult rb = blocked.cpu.step_block({}, &consumed);
  EXPECT_EQ(blocked.cpu.superblock_stats().hits, hits + 1);  // cached block
  ASSERT_EQ(consumed, want_consumed);
  isa::StepResult rs;
  for (u64 k = 0; k < consumed; ++k) rs = stepped.cpu.step();
  EXPECT_EQ(rb.status, want_status);
  EXPECT_EQ(rb.status, rs.status);
  ASSERT_EQ(rb.num_data_hits, rs.num_data_hits);
  for (u8 h = 0; h < rb.num_data_hits; ++h) {
    EXPECT_EQ(rb.data_hits[h].bp_index, rs.data_hits[h].bp_index);
    EXPECT_EQ(rb.data_hits[h].addr, rs.data_hits[h].addr);
    EXPECT_EQ(rb.data_hits[h].is_write, rs.data_hits[h].is_write);
  }
  EXPECT_EQ(blocked.cpu.snapshot().words, stepped.cpu.snapshot().words);
  EXPECT_EQ(blocked.cpu.cycles(), stepped.cpu.cycles());
}

TEST(CiscaSuperblockTest, BreakpointStopsInsideACachedBlockMatchSingleSteps) {
  Asm a(kCode);
  a.mov_r_imm(kEax, 1);
  a.mov_rm_r(MemOperand{.disp = static_cast<i32>(kData)}, kEax);  // 2nd
  const Addr third = a.here();
  a.mov_r_imm(kEbx, 2);
  a.mov_r_imm(kEcx, 3);
  a.hlt();
  const std::vector<u8> program = a.finish();

  Rig blocked(true), stepped(false);
  for (Rig* rig : {&blocked, &stepped}) {
    rig->space.map_region("data", kData, 4096,
                          {.read = true, .write = true});
    rig->load(program);
    rig->run();  // caches the block on the superblock rig
  }

  // An instruction breakpoint at the third instruction stops the cached
  // block before it executes: two instructions plus the stop.
  for (Rig* rig : {&blocked, &stepped}) {
    rig->cpu.set_pc(kCode);
    rig->cpu.debug().arm_insn_bp(third);
  }
  {
    SCOPED_TRACE("instruction breakpoint");
    expect_dispatch_matches(blocked, stepped, 3, isa::StepStatus::kInsnBp);
  }
  EXPECT_EQ(blocked.cpu.pc(), third);

  // A data breakpoint hit by the second instruction ends the block right
  // after it, reporting the hit.
  for (Rig* rig : {&blocked, &stepped}) {
    rig->cpu.set_pc(kCode);
    rig->cpu.debug().arm_data_bp(1, kData, 4, /*on_read=*/false,
                                 /*on_write=*/true);
  }
  {
    SCOPED_TRACE("data breakpoint");
    expect_dispatch_matches(blocked, stepped, 2, isa::StepStatus::kOk);
  }
  EXPECT_EQ(blocked.cpu.pc(), third);
}

// --- Trap delivery ----------------------------------------------------------

// `int` delivers its trap as the instruction's last act (no unwinding);
// a faulting memory access still raises mid-instruction.  Both must reach
// the machine loop identically through step() and step_block().

/// Five movs with `int vector` inserted before mov number `position` (0:
/// the int starts a block, 2: it ends a run mid-program, 5: it ends the
/// straight-line run), then a page fault in the middle of the next block.
std::vector<u8> trap_program(u8 vector, u32 position) {
  constexpr u8 kRegs[] = {kEax, kEbx, kEcx, kEdx, kEsi};
  Asm a(kCode);
  for (u32 i = 0; i <= 5; ++i) {
    if (i == position) a.int_(vector);
    if (i < 5) a.mov_r_imm(kRegs[i], i + 1);
  }
  a.mov_r_imm(kEdi, 9);
  a.mov_r_rm(kEax, MemOperand{.disp = static_cast<i32>(kUnmapped)});
  a.mov_r_imm(kEdi, 10);
  a.hlt();
  return a.finish();
}

/// Block dispatch and single steps side by side: after each dispatch that
/// consumed k iterations, k single steps must give the same StepResult,
/// registers, cycles and trace events.  Execution continues past each
/// delivered trap (the int already advanced EIP); the page fault ends it.
void expect_trap_lockstep(u8 vector, u32 position, bool traced) {
  SCOPED_TRACE(testing::Message() << "vector 0x" << std::hex << int{vector}
                                  << std::dec << " position " << position
                                  << (traced ? " traced" : " untraced"));
  const std::vector<u8> program = trap_program(vector, position);
  Rig blocked(true), stepped(false);
  trace::EventLog blog, slog;
  if (traced) {
    blocked.cpu.set_trace_sink(&blog);
    stepped.cpu.set_trace_sink(&slog);
  }
  blocked.load(program);
  stepped.load(program);
  u32 delivered = 0;
  for (u32 guard = 0; guard < 100; ++guard) {
    u64 consumed = 0;
    const isa::StepResult rb = blocked.cpu.step_block({}, &consumed);
    ASSERT_GE(consumed, 1u);
    isa::StepResult rs;
    for (u64 k = 0; k < consumed; ++k) {
      rs = stepped.cpu.step();
      if (k + 1 < consumed) {
        ASSERT_EQ(rs.status, isa::StepStatus::kOk);
      }
    }
    ASSERT_EQ(rb.status, rs.status) << "dispatch " << guard;
    ASSERT_EQ(rb.trap.cause, rs.trap.cause) << "dispatch " << guard;
    ASSERT_EQ(rb.trap.pc, rs.trap.pc) << "dispatch " << guard;
    ASSERT_EQ(rb.trap.addr, rs.trap.addr) << "dispatch " << guard;
    ASSERT_EQ(rb.trap.has_addr, rs.trap.has_addr) << "dispatch " << guard;
    ASSERT_EQ(rb.trap.aux, rs.trap.aux) << "dispatch " << guard;
    ASSERT_EQ(blocked.cpu.snapshot().words, stepped.cpu.snapshot().words)
        << "dispatch " << guard;
    ASSERT_EQ(blocked.cpu.cycles(), stepped.cpu.cycles())
        << "dispatch " << guard;
    ASSERT_EQ(blog.events, slog.events) << "dispatch " << guard;
    if (rb.status == isa::StepStatus::kOk) continue;
    ASSERT_EQ(rb.status, isa::StepStatus::kTrap);
    const auto cause = static_cast<Cause>(rb.trap.cause);
    if (cause == Cause::kPageFault) {
      EXPECT_EQ(delivered, 1u);
      EXPECT_EQ(rb.trap.addr, kUnmapped);
      EXPECT_EQ(blocked.cpu.regs().cr2, kUnmapped);
      if (traced) {
        EXPECT_FALSE(blog.events.empty());
      }
      return;
    }
    ++delivered;
    // The trap reports the return address, like the old thrown trap.
    EXPECT_EQ(rb.trap.pc, kCode + 5 * position + 2);  // int imm8: 2 bytes
    switch (vector) {
      case 0x80: EXPECT_EQ(cause, Cause::kSyscall); break;
      case 0x82: EXPECT_EQ(cause, Cause::kKernelPanic); break;
      case 0x83: EXPECT_EQ(cause, Cause::kSyscallReturn); break;
      default:
        EXPECT_EQ(cause, Cause::kGeneralProtection);
        EXPECT_EQ(rb.trap.aux, vector);
    }
  }
  FAIL() << "did not stop";
}

TEST(CiscaSuperblockTest, DeliveredAndRaisedTrapsMatchSingleStepping) {
  for (const u8 vector : {u8{0x80}, u8{0x83}, u8{0x82}, u8{0x41}}) {
    for (const u32 position : {0u, 2u, 5u}) {
      for (const bool traced : {false, true}) {
        expect_trap_lockstep(vector, position, traced);
      }
    }
  }
}

}  // namespace
}  // namespace kfi::cisca
