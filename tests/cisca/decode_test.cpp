// Decoder/encoder tests for the cisca (P4-like) ISA, including the
// encode->decode round-trip properties every injection experiment depends
// on, and the variable-length re-alignment mechanism of the paper's
// Figure 14.
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "cisca/decode.hpp"
#include "cisca/encode.hpp"
#include "common/rng.hpp"

namespace kfi::cisca {
namespace {

FetchWindow window_from(const std::vector<u8>& bytes, u32 offset = 0) {
  FetchWindow w;
  w.pc = 0x1000 + offset;
  for (u32 i = 0; i < kMaxInsnBytes && offset + i < bytes.size(); ++i) {
    w.bytes[i] = bytes[offset + i];
    w.valid = static_cast<u8>(i + 1);
  }
  return w;
}

Insn decode_one(const std::vector<u8>& bytes) {
  const DecodeResult r = decode(window_from(bytes));
  EXPECT_FALSE(r.fetch_fault);
  return r.insn;
}

MemOperand ebp_disp(i32 disp) {
  MemOperand m;
  m.base = kEbp;
  m.disp = disp;
  return m;
}

TEST(CiscaDecodeTest, MovRegImm) {
  Asm a(0x1000);
  a.mov_r_imm(kEax, 0xDEADBEEF);
  const Insn insn = decode_one(a.finish());
  EXPECT_EQ(insn.op, Op::kMov);
  EXPECT_EQ(insn.length, 5);
  EXPECT_EQ(insn.dst.reg, kEax);
  EXPECT_EQ(static_cast<u32>(insn.src.imm), 0xDEADBEEFu);
}

TEST(CiscaDecodeTest, PaperFigure7Epilogue) {
  // lea -12(%ebp),%esp; pop ebx; pop esi; pop edi; pop ebp; ret — the
  // exact gcc epilogue shown in the paper's Figure 7 original code.
  Asm a(0x1000);
  a.lea(kEsp, ebp_disp(-12));
  a.pop_r(kEbx);
  a.pop_r(kEsi);
  a.pop_r(kEdi);
  a.pop_r(kEbp);
  a.ret();
  const std::vector<u8> bytes = a.finish();
  // Byte-for-byte what the paper shows: 8d 65 f4 5b 5e 5f 5d c3.
  const std::vector<u8> expected = {0x8D, 0x65, 0xF4, 0x5B,
                                    0x5E, 0x5F, 0x5D, 0xC3};
  EXPECT_EQ(bytes, expected);
}

TEST(CiscaDecodeTest, PaperFigure7Realignment) {
  // The paper's stack-overflow example: one bit flip in the lea's ModRM
  // (65 -> 64) turns "lea -12(%ebp),%esp; pop %ebx" into the single
  // instruction "lea 0x5b(%esp,%esi,8),%esp" — consuming the pop.
  std::vector<u8> bytes = {0x8D, 0x65, 0xF4, 0x5B, 0x5E, 0x5F, 0x5D, 0xC3};
  bytes[1] ^= 0x01;  // 0x65 -> 0x64
  const Insn insn = decode_one(bytes);
  EXPECT_EQ(insn.op, Op::kLea);
  EXPECT_EQ(insn.length, 4);  // swallowed the pop ebx byte
  EXPECT_EQ(insn.dst.reg, kEsp);
  EXPECT_EQ(insn.src.mem.base, kEsp);
  EXPECT_EQ(insn.src.mem.index, kEsi);
  EXPECT_EQ(insn.src.mem.scale, 8);
  EXPECT_EQ(insn.src.mem.disp, 0x5B);
  // The stream re-aligns: the next instruction is now pop %esi.
  const DecodeResult next = decode(window_from(bytes, 4));
  EXPECT_EQ(next.insn.op, Op::kPop);
  EXPECT_EQ(next.insn.dst.reg, kEsi);
}

TEST(CiscaDecodeTest, SegmentOverridePrefix) {
  Asm a(0x1000);
  MemOperand m;
  m.seg = SegOverride::kFs;
  m.disp = 0x10;
  a.inc_rm(m);
  const Insn insn = decode_one(a.finish());
  EXPECT_EQ(insn.op, Op::kInc);
  EXPECT_EQ(insn.dst.mem.seg, SegOverride::kFs);
}

TEST(CiscaDecodeTest, Ud2DecodesAsItself) {
  const Insn insn = decode_one({0x0F, 0x0B});
  EXPECT_EQ(insn.op, Op::kUd2);
  EXPECT_EQ(insn.length, 2);
}

TEST(CiscaDecodeTest, UndefinedBytesAreInvalid) {
  // The residual undefined encodings of real IA-32 (segment push/pop and
  // a few reserved bytes).
  for (const u8 b : {0x06, 0x07, 0x0E, 0x16, 0x17, 0x1E, 0x1F}) {
    const Insn insn = decode_one({b, 0x00, 0x00});
    EXPECT_EQ(insn.op, Op::kInvalid) << "byte " << static_cast<int>(b);
  }
}

TEST(CiscaDecodeTest, StringOpsAndPrefixes) {
  // rep movsd: F3 A5.
  const Insn movs = decode_one({0xF3, 0xA5});
  EXPECT_EQ(movs.op, Op::kMovs);
  EXPECT_TRUE(movs.rep);
  EXPECT_EQ(movs.width, 4);
  // repne scasb: F2 AE.
  const Insn scas = decode_one({0xF2, 0xAE});
  EXPECT_EQ(scas.op, Op::kScas);
  EXPECT_TRUE(scas.repne);
  EXPECT_EQ(scas.width, 1);
  // 16-bit ALU via the operand-size prefix: 66 01 D8 = add ax, bx.
  const Insn add16 = decode_one({0x66, 0x01, 0xD8});
  EXPECT_EQ(add16.op, Op::kAdd);
  EXPECT_EQ(add16.width, 2);
  EXPECT_EQ(add16.length, 3);
}

TEST(CiscaDecodeTest, FetchFaultAtWindowEnd) {
  // A 5-byte instruction with only 2 readable bytes: the fetch faults at
  // the first unreadable byte.
  FetchWindow w;
  w.pc = 0x1FFE;
  w.bytes[0] = 0xB8;  // mov eax, imm32 (needs 4 more bytes)
  w.bytes[1] = 0x11;
  w.valid = 2;
  const DecodeResult r = decode(w);
  EXPECT_TRUE(r.fetch_fault);
  EXPECT_EQ(r.fault_addr, 0x2000u);
}

TEST(CiscaDecodeTest, MostByteValuesBeginValidInstructions) {
  // The load-bearing density property (paper Section 5.3): the opcode map
  // must be dense enough that random bytes usually decode as valid
  // instructions, like real IA-32.
  u32 valid = 0;
  Rng rng(99);
  const u32 kTrials = 2000;
  for (u32 t = 0; t < kTrials; ++t) {
    std::vector<u8> bytes(kMaxInsnBytes);
    for (auto& b : bytes) b = static_cast<u8>(rng.next_u32());
    const DecodeResult r = decode(window_from(bytes));
    if (!r.fetch_fault && r.insn.op != Op::kInvalid) ++valid;
  }
  EXPECT_GT(static_cast<double>(valid) / kTrials, 0.70);
}

struct RoundTrip {
  std::string name;
  std::function<void(Asm&)> emit;
  Op expected_op;
  u8 expected_len;
};

// gtest's default printer dumps the raw bytes of the case, including the
// heap pointer inside `name`, which would make the listed test names differ
// on every run.  Print the case name instead.
void PrintTo(const RoundTrip& c, std::ostream* os) { *os << c.name; }

class CiscaRoundTripTest : public ::testing::TestWithParam<RoundTrip> {};

TEST_P(CiscaRoundTripTest, EncodeDecodeRoundTrips) {
  Asm a(0x1000);
  GetParam().emit(a);
  const Insn insn = decode_one(a.finish());
  EXPECT_EQ(insn.op, GetParam().expected_op);
  EXPECT_EQ(insn.length, GetParam().expected_len);
}

INSTANTIATE_TEST_SUITE_P(
    Encodings, CiscaRoundTripTest,
    ::testing::Values(
        RoundTrip{"add_rr", [](Asm& a) { a.alu_rr(Op::kAdd, kEax, kEbx); },
                  Op::kAdd, 2},
        RoundTrip{"sub_imm8", [](Asm& a) { a.alu_r_imm(Op::kSub, kEsp, 8); },
                  Op::kSub, 3},
        RoundTrip{"cmp_imm32",
                  [](Asm& a) { a.alu_r_imm(Op::kCmp, kEcx, 0x12345); },
                  Op::kCmp, 6},
        RoundTrip{"xor_rr", [](Asm& a) { a.alu_rr(Op::kXor, kEdx, kEdx); },
                  Op::kXor, 2},
        RoundTrip{"push", [](Asm& a) { a.push_r(kEbp); }, Op::kPush, 1},
        RoundTrip{"pop", [](Asm& a) { a.pop_r(kEdi); }, Op::kPop, 1},
        RoundTrip{"push_imm8", [](Asm& a) { a.push_imm(5); }, Op::kPush, 2},
        RoundTrip{"inc", [](Asm& a) { a.inc_r(kEsi); }, Op::kInc, 1},
        RoundTrip{"dec", [](Asm& a) { a.dec_r(kEax); }, Op::kDec, 1},
        RoundTrip{"nop", [](Asm& a) { a.nop(); }, Op::kNop, 1},
        RoundTrip{"ret", [](Asm& a) { a.ret(); }, Op::kRet, 1},
        RoundTrip{"leave", [](Asm& a) { a.leave(); }, Op::kLeave, 1},
        RoundTrip{"hlt", [](Asm& a) { a.hlt(); }, Op::kHlt, 1},
        RoundTrip{"int80", [](Asm& a) { a.int_(0x80); }, Op::kInt, 2},
        RoundTrip{"iret", [](Asm& a) { a.iret(); }, Op::kIret, 1},
        RoundTrip{"cdq", [](Asm& a) { a.cdq(); }, Op::kCdq, 1},
        RoundTrip{"div", [](Asm& a) { a.div_r(kEcx); }, Op::kDiv, 2},
        RoundTrip{"imul_rr", [](Asm& a) { a.imul_rr(kEax, kEbx); },
                  Op::kImul, 3},
        RoundTrip{"shl_imm", [](Asm& a) { a.shift_r_imm(Op::kShl, kEax, 4); },
                  Op::kShl, 3},
        RoundTrip{"movzx8",
                  [](Asm& a) { a.movzx_r_rm8(kEax, ebp_disp(-4)); },
                  Op::kMovzx, 4},
        RoundTrip{"mov16_store",
                  [](Asm& a) { a.mov_rm_r16(ebp_disp(-8), kEcx); },
                  Op::kMov, 4},
        RoundTrip{"xchg", [](Asm& a) { a.xchg_rr(kEbx, kEcx); },
                  Op::kXchg, 2},
        RoundTrip{"bound", [](Asm& a) { a.bound(kEax, ebp_disp(-16)); },
                  Op::kBound, 3},
        RoundTrip{"mov_cr", [](Asm& a) { a.mov_to_cr(0, kEax); },
                  Op::kMovToCr, 3},
        RoundTrip{"mov_seg", [](Asm& a) { a.mov_to_seg(false, kEax); },
                  Op::kMovToSeg, 2}),
    [](const auto& info) { return info.param.name; });

TEST(CiscaDecodeTest, BranchFixupsResolve) {
  Asm a(0x1000);
  const auto loop = a.new_label();
  a.bind(loop);
  a.dec_r(kEcx);
  a.jcc(kCondNE, loop);
  const std::vector<u8> bytes = a.finish();
  const DecodeResult r = decode(window_from(bytes, 1));
  EXPECT_EQ(r.insn.op, Op::kJcc);
  EXPECT_EQ(r.insn.cond, kCondNE);
  // target = after(1 + 6) + rel = offset 0 -> rel = -7.
  EXPECT_EQ(r.insn.rel, -7);
}

TEST(CiscaDecodeTest, DisassemblyMentionsOperands) {
  Asm a(0x1000);
  a.mov_r_rm(kEax, ebp_disp(-32));
  const Insn insn = decode_one(a.finish());
  const std::string s = insn.to_string();
  EXPECT_NE(s.find("mov"), std::string::npos);
  EXPECT_NE(s.find("%ebp"), std::string::npos);
  EXPECT_NE(s.find("%eax"), std::string::npos);
}

TEST(CiscaDecodeTest, SibAddressingRoundTrips) {
  Asm a(0x1000);
  MemOperand m;
  m.base = MemOperand::kNoReg;
  m.index = kEsi;
  m.scale = 8;
  m.disp = 0x5B;
  a.lea(kEsp, m);
  const Insn insn = decode_one(a.finish());
  EXPECT_EQ(insn.op, Op::kLea);
  EXPECT_EQ(insn.src.mem.index, kEsi);
  EXPECT_EQ(insn.src.mem.scale, 8);
  EXPECT_EQ(insn.src.mem.disp, 0x5B);
}

}  // namespace
}  // namespace kfi::cisca
