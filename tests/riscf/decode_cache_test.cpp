// The uncached reference decoder: step() reads and decodes the current
// instruction word on every execution, so a word that has already run and
// is then corrupted by the injector's bit flip or overwritten by a store
// the program itself executes runs as the new word says the next time it
// is reached.  Superblock execution is checked against this path
// (superblock_test.cpp, the campaign cross-checks), so these tests pin the
// reference itself.
#include <gtest/gtest.h>

#include "mem/address_space.hpp"
#include "riscf/cpu.hpp"
#include "riscf/encode.hpp"

namespace kfi::riscf {
namespace {

constexpr Addr kCode = 0x10000;

struct Rig {
  mem::AddressSpace space{256 * 1024, mem::Endian::kBig};
  RiscfCpu cpu{space};

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
  a.li(3, 1);  // addi r3, 0, 1: the simm field's low byte is kCode + 3
  a.sc();
  return a.finish();
}

TEST(RiscfDecodeCacheTest, InjectorFlipInCachedCodeIsReDecoded) {
  Rig rig;
  rig.load(immediate_load_program());
  rig.run();
  ASSERT_EQ(rig.cpu.regs().gpr[3], 1u);
  const u64 decodes = rig.cpu.decode_cache_stats().misses;
  EXPECT_EQ(decodes, 2u);  // li, sc
  // The injector's path: flip bit 1 of the big-endian simm byte (1 -> 3).
  rig.space.vflip_bit(kCode + 3, 1);
  rig.cpu.set_pc(kCode);
  rig.run();
  EXPECT_EQ(rig.cpu.regs().gpr[3], 3u);
  // Every execution decoded afresh; nothing was served from a cache.
  EXPECT_EQ(rig.cpu.decode_cache_stats().misses, 2 * decodes);
  EXPECT_EQ(rig.cpu.decode_cache_stats().hits, 0u);
}

TEST(RiscfDecodeCacheTest, SelfModifyingStoreIsReDecoded) {
  // Pass 1 executes `li r3, 1`, stores the encoding of `li r3, 7` over
  // it, and branches back; pass 2 must execute the patched word.
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

  Rig rig;
  rig.load(a.finish());
  rig.run();
  EXPECT_EQ(rig.cpu.regs().gpr[3], 7u);
}

TEST(RiscfDecodeCacheTest, CorruptedWordStillTrapsWithTheRightAux) {
  // A word corrupted into a reserved encoding must raise Illegal
  // Instruction carrying the corrupted word (the paper's dominant G4
  // text-error outcome), even though the word executed cleanly before.
  Rig rig;
  rig.load(immediate_load_program());
  rig.run();
  ASSERT_EQ(rig.cpu.regs().gpr[3], 1u);
  // Corrupt the executed li's primary opcode field to a reserved one.
  rig.space.vwrite32(kCode, 0x00000001u);
  rig.cpu.set_pc(kCode);
  const isa::StepResult r = rig.run();
  ASSERT_EQ(r.status, isa::StepStatus::kTrap);
  EXPECT_EQ(r.trap.cause, static_cast<u32>(Cause::kIllegalInstruction));
  EXPECT_EQ(r.trap.pc, kCode);
  EXPECT_EQ(r.trap.aux, 0x00000001u);
}

}  // namespace
}  // namespace kfi::riscf
