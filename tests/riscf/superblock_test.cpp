// Superblock (multi-instruction trace) execution contract for riscf:
// dispatching a cached straight-line block through per-op handler pointers
// must be bit-identical to single-stepping — same register results, same
// cycle charges, same trap ordering — and a write into a cached block's
// page (an injected flip or the program's own store) must invalidate the
// block so the corrupted bytes re-decode.  Results are compared against a
// superblock-disabled CPU running the identical program.
#include <gtest/gtest.h>

#include "../trace/event_log.hpp"
#include "mem/address_space.hpp"
#include "riscf/cpu.hpp"
#include "riscf/encode.hpp"

namespace kfi::riscf {
namespace {

constexpr Addr kCode = 0x10000;
constexpr Addr kUnmapped = 0x20000;

struct Rig {
  mem::AddressSpace space{256 * 1024, mem::Endian::kBig};
  RiscfCpu cpu{space};

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
  a.li(3, 1);  // kCode + 0
  a.li(4, 2);  // kCode + 4
  a.li(5, 3);  // kCode + 8: simm low byte at kCode + 11
  a.sc();
  return a.finish();
}

TEST(RiscfSuperblockTest, InjectorFlipMidBlockIsReDecoded) {
  // The flip lands on the THIRD instruction of an already-cached block —
  // the block must be rebuilt, not just its first entry.
  Rig warm(true), cold(false);
  for (Rig* rig : {&warm, &cold}) {
    rig->load(straight_line_program());
    rig->run();
    ASSERT_EQ(rig->cpu.regs().gpr[5], 3u);
    // The injector's path: flip bit 2 of the simm byte (3 -> 7).
    rig->space.vflip_bit(kCode + 11, 2);
    rig->cpu.set_pc(kCode);
    rig->run();
  }
  EXPECT_EQ(warm.cpu.regs().gpr[5], 7u);
  EXPECT_EQ(warm.cpu.regs().gpr[5], cold.cpu.regs().gpr[5]);
  EXPECT_GE(warm.cpu.superblock_stats().invalidations, 1u);
  EXPECT_EQ(cold.cpu.superblock_stats().dispatches, 0u);
}

TEST(RiscfSuperblockTest, SelfModifyingStoreIsReDecoded) {
  // Pass 1 executes `li r3, 1` (caching its block), stores the encoding
  // of `li r3, 7` over it, and branches back; pass 2 must execute the
  // patched word.
  Asm a(kCode);
  const auto start = a.new_label();
  const auto done = a.new_label();
  a.bind(start);
  a.li(3, 1);  // patched between passes
  a.cmpwi(4, 0);
  a.bne(done);
  a.li(4, 1);
  a.li32(5, 0x38600007u);  // addi r3, 0, 7
  a.li32(6, kCode);
  a.stw(5, 0, 6);
  a.b(start);
  a.bind(done);
  a.sc();
  const std::vector<u8> program = a.finish();

  Rig warm(true), cold(false);
  for (Rig* rig : {&warm, &cold}) {
    rig->load(program);
    rig->run();
  }
  EXPECT_EQ(warm.cpu.regs().gpr[3], 7u);
  EXPECT_EQ(warm.cpu.regs().gpr[3], cold.cpu.regs().gpr[3]);
  EXPECT_GE(warm.cpu.superblock_stats().invalidations, 1u);
}

TEST(RiscfSuperblockTest, UnmodifiedCodeHitsOnRedispatch) {
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

TEST(RiscfSuperblockTest, BlockDispatchMatchesSingleSteppingInLockstep) {
  // Strongest equivalence check: after every block dispatch consuming k
  // iterations, k single steps on a superblock-free CPU must land in the
  // bit-identical register state at the same cycle count.
  Asm a(kCode);
  const auto start = a.new_label();
  const auto done = a.new_label();
  a.li(3, 0);
  a.li(4, 5);
  a.bind(start);
  a.cmpwi(4, 0);
  a.beq(done);
  a.li32(5, 0x1000);
  a.addi(3, 3, 7);
  a.addi(4, 4, -1);
  a.b(start);
  a.bind(done);
  a.sc();
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

TEST(RiscfSuperblockTest, MaxInsnsLimitBoundsTheDispatch) {
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
  EXPECT_EQ(rig.cpu.regs().gpr[5], 3u);
}

TEST(RiscfSuperblockTest, CycleBoundStopsMidBlock) {
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
  EXPECT_EQ(rig.cpu.regs().gpr[3], 1u);
  EXPECT_EQ(rig.cpu.regs().gpr[4], 0u);  // second insn did not run
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

TEST(RiscfSuperblockTest, BreakpointStopsInsideACachedBlockMatchSingleSteps) {
  // r6 holds the data address before the block runs.
  Asm a(kCode);
  a.li(3, 1);
  a.stw(3, 0, 6);  // 2nd
  const Addr third = a.here();
  a.li(4, 2);
  a.li(5, 3);
  a.sc();
  const std::vector<u8> program = a.finish();

  Rig blocked(true), stepped(false);
  for (Rig* rig : {&blocked, &stepped}) {
    rig->space.map_region("data", kData, 4096,
                          {.read = true, .write = true});
    rig->load(program);
    rig->cpu.regs().gpr[6] = kData;
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

// `sc` delivers its trap as the instruction's last act (no unwinding, and
// no trace_writes, like a thrown trap); a faulting load still raises
// mid-instruction.  Both must reach the machine loop identically through
// step() and step_block().

/// Five li's with `sc` inserted before li number `position` (0: the sc
/// starts a block, 2: it ends a run mid-program, 5: it ends the
/// straight-line run), then a DSI in the middle of the next block.
std::vector<u8> trap_program(u32 position) {
  Asm a(kCode);
  for (u32 i = 0; i <= 5; ++i) {
    if (i == position) a.sc();
    if (i < 5) a.li(static_cast<u8>(3 + i), static_cast<i32>(i + 1));
  }
  a.li32(8, kUnmapped);
  a.lwz(9, 0, 8);
  a.li(10, 1);
  a.sc();
  return a.finish();
}

/// Block dispatch and single steps side by side: after each dispatch that
/// consumed k iterations, k single steps must give the same StepResult,
/// registers, cycles and trace events.  Execution continues past the
/// delivered trap (sc already advanced the pc); the DSI ends it.
void expect_trap_lockstep(u32 position, bool traced) {
  SCOPED_TRACE(testing::Message() << "position " << position
                                  << (traced ? " traced" : " untraced"));
  const std::vector<u8> program = trap_program(position);
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
    if (cause == Cause::kDataStorage) {
      EXPECT_EQ(delivered, 1u);
      EXPECT_EQ(rb.trap.addr, kUnmapped);
      EXPECT_EQ(blocked.cpu.regs().dar, kUnmapped);
      if (traced) {
        EXPECT_FALSE(blog.events.empty());
      }
      return;
    }
    ++delivered;
    EXPECT_EQ(cause, Cause::kSyscall);
    // The trap reports the return address, like the old thrown trap.
    EXPECT_EQ(rb.trap.pc, kCode + 4 * position + 4);
  }
  FAIL() << "did not stop";
}

TEST(RiscfSuperblockTest, DeliveredAndRaisedTrapsMatchSingleStepping) {
  for (const u32 position : {0u, 2u, 5u}) {
    for (const bool traced : {false, true}) {
      expect_trap_lockstep(position, traced);
    }
  }
}

}  // namespace
}  // namespace kfi::riscf
