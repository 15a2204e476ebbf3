// Functional-unit classification of riscf instructions against
// hand-decoded 32-bit words (real PowerPC encodings), plus the
// superblock-cache side of opclass targeting: corrupting a cached
// instruction so it changes class must force a re-decode.
#include <gtest/gtest.h>

#include "mem/address_space.hpp"
#include "riscf/cpu.hpp"
#include "riscf/insn.hpp"

namespace kfi::riscf {
namespace {

struct ClassedWord {
  u32 word;
  Op op;
  isa::OpClass cls;
};

TEST(RiscfOpClassTest, HandDecodedWordsClassify) {
  const ClassedWord cases[] = {
      // ALU.
      {0x38600001, Op::kAddi, isa::OpClass::kAlu},   // addi r3, r0, 1
      {0x7C632214, Op::kAdd, isa::OpClass::kAlu},    // add r3, r3, r4
      {0x7C631838, Op::kAnd, isa::OpClass::kAlu},    // and r3, r3, r3
      {0x2C030000, Op::kCmpwi, isa::OpClass::kAlu},  // cmpwi r3, 0
      {0x5463083C, Op::kRlwinm, isa::OpClass::kAlu}, // rlwinm r3,r3,1,0,30
      // Load/store.
      {0x80610004, Op::kLwz, isa::OpClass::kLoadStore},  // lwz r3, 4(r1)
      {0x90610000, Op::kStw, isa::OpClass::kLoadStore},  // stw r3, 0(r1)
      {0x88610000, Op::kLbz, isa::OpClass::kLoadStore},  // lbz r3, 0(r1)
      {0x7C61222E, Op::kLhzx, isa::OpClass::kLoadStore}, // lhzx r3,r1,r4
      // Branch.
      {0x48000008, Op::kB, isa::OpClass::kBranch},     // b +8
      {0x41820008, Op::kBc, isa::OpClass::kBranch},    // beq +8
      {0x4E800020, Op::kBclr, isa::OpClass::kBranch},  // blr
      // System.
      {0x44000002, Op::kSc, isa::OpClass::kSystem},     // sc
      {0x7C0802A6, Op::kMfspr, isa::OpClass::kSystem},  // mflr r0
      {0x7C0004AC, Op::kSync, isa::OpClass::kSystem},   // sync
      // Other: the all-zero illegal word.
      {0x00000000, Op::kInvalid, isa::OpClass::kOther},
  };
  for (const auto& c : cases) {
    const Insn insn = decode(c.word);
    EXPECT_EQ(insn.op, c.op) << std::hex << c.word << " " << insn.to_string();
    EXPECT_EQ(opclass(insn.op), c.cls) << insn.to_string();
  }
}

TEST(RiscfOpClassTest, EveryOpHasAClassBelowNumClasses) {
  for (u32 raw = 0; raw <= static_cast<u32>(Op::kMcrf); ++raw) {
    const auto cls = opclass(static_cast<Op>(raw));
    EXPECT_LT(static_cast<u32>(cls),
              static_cast<u32>(isa::OpClass::kNumClasses));
  }
}

TEST(RiscfOpClassTest, CorruptedCachedInsnMigratesClassAndReDecodes) {
  // Flipping the MSB of `addi r3, r0, 1` (opcode 14) yields opcode 46 —
  // `lmw`, a load/store — so one injected bit moves the instruction from
  // the ALU class to load/store.  The addi's copy in a cached superblock
  // must not survive the flip.
  constexpr Addr kCode = 0x10000;
  mem::AddressSpace space{64 * 1024, mem::Endian::kBig};
  RiscfCpu cpu{space};
  const auto run = [&cpu] {
    u64 consumed = 0;
    for (int i = 0; i < 8; ++i) {
      if (cpu.step_block({}, &consumed).status != isa::StepStatus::kOk) {
        return;
      }
    }
  };
  space.map_region("code", kCode, 4096,
                   {.read = true, .write = true, .execute = true});
  const u32 addi = 0x38600001;
  space.vwrite32(kCode, addi);
  space.vwrite32(kCode + 4, 0x44000002);  // sc
  cpu.set_pc(kCode);
  run();
  ASSERT_EQ(cpu.regs().gpr[3], 1u);
  ASSERT_EQ(cpu.superblock_stats().misses, 1u);  // one block: addi, sc
  ASSERT_EQ(opclass(decode(addi).op), isa::OpClass::kAlu);

  // Big-endian image: the opcode's top bit lives in byte 0, bit 7.
  space.vflip_bit(kCode, 7);
  const u32 corrupted = space.vread32(kCode);
  EXPECT_EQ(corrupted, 0xB8600001u);
  EXPECT_EQ(decode(corrupted).op, Op::kLmw);
  EXPECT_EQ(opclass(decode(corrupted).op), isa::OpClass::kLoadStore);

  // The next fetch must decode the corrupted word, not the cached addi.
  EXPECT_EQ(cpu.decode_at(kCode).op, Op::kLmw);
  cpu.set_pc(kCode);
  cpu.regs().gpr[3] = 0;
  run();
  EXPECT_NE(cpu.regs().gpr[3], 1u);  // the addi is gone
  EXPECT_GE(cpu.superblock_stats().invalidations, 1u);
}

}  // namespace
}  // namespace kfi::riscf
