// The uncached reference decoder: step() fetches and decodes the current
// bytes on every execution, so an instruction that has already run and is
// then corrupted — via the injector's bit-flip path or via a store
// executed by the simulated program itself — runs as the new bytes say
// the next time it is reached.  Superblock execution is checked against
// this path (superblock_test.cpp, the campaign cross-checks), so these
// tests pin the reference itself.
#include <gtest/gtest.h>

#include "cisca/cpu.hpp"
#include "cisca/encode.hpp"
#include "mem/address_space.hpp"

namespace kfi::cisca {
namespace {

constexpr Addr kCode = 0x10000;

/// One CPU over its own writable+executable code page (2004-era MMUs had
/// no NX, and self-modifying code is exactly what the decoder must see).
struct Rig {
  mem::AddressSpace space{256 * 1024, mem::Endian::kLittle};
  CiscaCpu cpu{space};

  Rig() {
    space.map_region("code", kCode, 4096,
                     {.read = true, .write = true, .execute = true});
  }

  void load(const std::vector<u8>& bytes) {
    space.vwrite_bytes(kCode, bytes.data(), static_cast<u32>(bytes.size()));
    cpu.set_pc(kCode);
  }

  isa::StepResult run(u32 max_steps = 100) {
    for (u32 i = 0; i < max_steps; ++i) {
      const isa::StepResult r = cpu.step();
      if (r.status != isa::StepStatus::kOk) return r;
    }
    ADD_FAILURE() << "did not stop";
    return {};
  }
};

std::vector<u8> immediate_load_program() {
  Asm a(kCode);
  a.mov_r_imm(kEax, 1);  // B8 imm32: imm byte lives at kCode + 1
  a.hlt();
  return a.finish();
}

TEST(CiscaDecodeCacheTest, InjectorFlipInCachedCodeIsReDecoded) {
  Rig rig;
  rig.load(immediate_load_program());
  rig.run();
  ASSERT_EQ(rig.cpu.regs().gpr[kEax], 1u);
  const u64 decodes = rig.cpu.decode_cache_stats().misses;
  EXPECT_EQ(decodes, 2u);  // mov, hlt
  // The injector's path: flip bit 1 of the imm byte (1 -> 3).
  rig.space.vflip_bit(kCode + 1, 1);
  rig.cpu.set_pc(kCode);
  rig.run();
  EXPECT_EQ(rig.cpu.regs().gpr[kEax], 3u);
  // Every execution decoded afresh; nothing was served from a cache.
  EXPECT_EQ(rig.cpu.decode_cache_stats().misses, 2 * decodes);
  EXPECT_EQ(rig.cpu.decode_cache_stats().hits, 0u);
}

TEST(CiscaDecodeCacheTest, SelfModifyingStoreIsReDecoded) {
  // Pass 1 executes `mov eax, 1`, patches its imm byte to 7 with an
  // ordinary store, and loops; pass 2 must execute the patched
  // instruction.
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

  Rig rig;
  rig.load(a.finish());
  rig.run();
  EXPECT_EQ(rig.cpu.regs().gpr[kEax], 7u);
}

TEST(CiscaDecodeCacheTest, CorruptedBytesTrapWithTheFirstByteAsAux) {
  // Corrupting an executed instruction into an undefined opcode must
  // raise #UD carrying the corrupted first byte, which the crash cause
  // analysis reports.
  Rig rig;
  rig.load(immediate_load_program());
  rig.run();
  ASSERT_EQ(rig.cpu.regs().gpr[kEax], 1u);
  constexpr u8 kUndefined = 0x06;  // push es: undefined in cisca
  rig.space.vwrite8(kCode, kUndefined);
  ASSERT_EQ(rig.cpu.decode_at(kCode).insn.op, Op::kInvalid);
  rig.cpu.set_pc(kCode);
  const isa::StepResult r = rig.run();
  ASSERT_EQ(r.status, isa::StepStatus::kTrap);
  EXPECT_EQ(r.trap.cause, static_cast<u32>(Cause::kInvalidOpcode));
  EXPECT_EQ(r.trap.pc, kCode);
  EXPECT_EQ(r.trap.aux, kUndefined);
}

}  // namespace
}  // namespace kfi::cisca
