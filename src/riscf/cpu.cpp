#include "riscf/cpu.hpp"

#include <array>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "riscf/sysregs.hpp"

namespace kfi::riscf {

namespace {

u32 rotl32(u32 v, u32 n) { return n == 0 ? v : (v << n) | (v >> (32 - n)); }

constexpr size_t kNumOps = static_cast<size_t>(Op::kMcrf) + 1;

}  // namespace

RiscfCpu::RiscfCpu(mem::AddressSpace& space)
    : Engine(space), sysregs_(std::make_unique<RiscfSysRegs>(*this)) {
  // Pre-touch every inert supervisor SPR so snapshots have a fixed shape.
  for (const u32 spr : inert_supervisor_sprs()) spr_storage_[spr] = 0;
}

RiscfCpu::~RiscfCpu() = default;

isa::SystemRegisterBank& RiscfCpu::sysregs() { return *sysregs_; }

isa::Trap RiscfCpu::make_trap(Cause cause, Addr addr, bool has_addr,
                              u32 aux) {
  isa::Trap trap;
  trap.cause = static_cast<u32>(cause);
  trap.pc = regs_.pc;
  trap.addr = addr;
  trap.has_addr = has_addr;
  trap.aux = aux;
  if (cause == Cause::kDataStorage || cause == Cause::kAlignment ||
      cause == Cause::kProtection) {
    regs_.dar = addr;
    regs_.dsisr = 0x40000000;
  }
  // A machine check with MSR.ME cleared is a checkstop: the processor
  // stops dead.  aux=1 flags this so the kernel runtime can treat it as a
  // hang rather than a handled exception.
  if (cause == Cause::kMachineCheck && (regs_.msr & kMsrME) == 0) {
    trap.aux = 1;
  }
  return trap;
}

void RiscfCpu::check_alignment(Addr ea, u8 width) {
  // Like the MPC7455, most unaligned accesses are handled in hardware
  // (with a cycle penalty); the alignment interrupt fires only when an
  // unaligned access straddles a cache-line boundary.
  if (width == 1 || (ea & (width - 1)) == 0) return;
  if ((ea & 31) + width > 32) raise(Cause::kAlignment, ea, true);
  cycles_ += 3;
}

u32 RiscfCpu::read_mem(Addr addr, u8 width) {
  if ((regs_.msr & kMsrDR) == 0) raise(Cause::kMachineCheck, addr, true);
  check_alignment(addr, width);
  u32 phys = 0;
  if (!space_.try_translate(addr, width, mem::Access::kRead, &phys)) {
    const auto tr = space_.translate(addr, width, mem::Access::kRead);
    if (!tr.ok()) {
      if (tr.fault->kind == mem::FaultKind::kBusRegion) {
        raise(Cause::kMachineCheck, addr, true);
      }
      raise(Cause::kDataStorage, addr, true);
    }
    phys = tr.phys;
  }
  cycles_ += 2;
  u32 value = 0;
  switch (width) {
    case 1: value = space_.phys().read8(phys); break;
    case 2: value = space_.phys().read16(phys, mem::Endian::kBig); break;
    case 4: value = space_.phys().read32(phys, mem::Endian::kBig); break;
    default: KFI_CHECK(false, "bad width");
  }
  note_data_access(addr, width, /*is_write=*/false);
  if (sink_ != nullptr) sink_->on_mem_read(addr, phys, width);
  return value;
}

void RiscfCpu::write_mem(Addr addr, u8 width, u32 value) {
  if ((regs_.msr & kMsrDR) == 0) raise(Cause::kMachineCheck, addr, true);
  check_alignment(addr, width);
  u32 phys = 0;
  if (!space_.try_translate(addr, width, mem::Access::kWrite, &phys)) {
    const auto tr = space_.translate(addr, width, mem::Access::kWrite);
    if (!tr.ok()) {
      switch (tr.fault->kind) {
        case mem::FaultKind::kBusRegion:
          raise(Cause::kMachineCheck, addr, true);
        case mem::FaultKind::kNoWrite:
          // Store to a protected page: the paper's Table 4 "bus error
          // (protection fault)" category.
          raise(Cause::kProtection, addr, true);
        default:
          raise(Cause::kDataStorage, addr, true);
      }
    }
    phys = tr.phys;
  }
  cycles_ += 2;
  switch (width) {
    case 1: space_.phys().write8(phys, static_cast<u8>(value)); break;
    case 2:
      space_.phys().write16(phys, static_cast<u16>(value), mem::Endian::kBig);
      break;
    case 4: space_.phys().write32(phys, value, mem::Endian::kBig); break;
    default: KFI_CHECK(false, "bad width");
  }
  note_data_access(addr, width, /*is_write=*/true);
  if (sink_ != nullptr) sink_->on_mem_write(addr, phys, width);
}

void RiscfCpu::set_cr_field(u8 field, u32 bits4) {
  const u32 shift = (7 - field) * 4;
  regs_.cr = (regs_.cr & ~(0xFu << shift)) | ((bits4 & 0xF) << shift);
  trace_rm(kSlotCr);  // partial update: other CR fields keep their shadow
}

void RiscfCpu::record_cr0(u32 result) {
  trace_rr(kSlotXer);  // SO bit copied into CR0
  const i32 sr = static_cast<i32>(result);
  u32 bits = 0;
  if (sr < 0) bits |= 8;        // LT
  else if (sr > 0) bits |= 4;   // GT
  else bits |= 2;               // EQ
  // SO copied from XER[SO].
  if (regs_.xer & 0x80000000u) bits |= 1;
  set_cr_field(0, bits);
}

void RiscfCpu::compare(u8 crfd, i64 a, i64 b) {
  trace_rr(kSlotXer);  // SO bit copied into the CR field
  u32 bits = 0;
  if (a < b) bits |= 8;
  else if (a > b) bits |= 4;
  else bits |= 2;
  if (regs_.xer & 0x80000000u) bits |= 1;
  set_cr_field(crfd, bits);
}

bool RiscfCpu::branch_cond(u8 bo, u8 bi) {
  bool ctr_ok = true;
  if ((bo & 0x04) == 0) {
    trace_rr(kSlotCtr);
    regs_.ctr -= 1;
    trace_rm(kSlotCtr);  // decrement derives from the old CTR value
    ctr_ok = ((regs_.ctr != 0) != ((bo & 0x02) != 0));
  }
  bool cond_ok = true;
  if ((bo & 0x10) == 0) {
    trace_rr(kSlotCr);
    const bool crbit = (regs_.cr & cr_bit_mask(bi)) != 0;
    cond_ok = crbit == ((bo & 0x08) != 0);
  }
  trace_branch();
  return ctr_ok && cond_ok;
}

void RiscfCpu::taken_branch_check() {
  // BTIC enabled over invalid contents (an HID0 bit flip — the kernel
  // boots with BTIC off) fetches a stale branch target: the fetched junk
  // raises a program exception on the next taken branch (Section 5.2).
  trace_rr(kSlotHid0);  // BTIC enable bit steers every taken branch
  if ((regs_.hid0 & kHid0Btic) != 0) {
    raise(Cause::kIllegalInstruction, regs_.pc, false, /*aux=*/kSprHid0);
  }
  cycles_ += 1;
}

void RiscfCpu::require_supervisor() {
  if ((regs_.msr & kMsrPR) != 0) raise(Cause::kPrivileged);
}

bool RiscfCpu::read_spr(u32 spr, u32& value) const {
  switch (spr) {
    case kSprXer: value = regs_.xer; return true;
    case kSprLr: value = regs_.lr; return true;
    case kSprCtr: value = regs_.ctr; return true;
    case kSprDsisr: value = regs_.dsisr; return true;
    case kSprDar: value = regs_.dar; return true;
    case kSprDec: value = regs_.dec; return true;
    case kSprSdr1: value = regs_.sdr1; return true;
    case kSprSrr0: value = regs_.srr0; return true;
    case kSprSrr1: value = regs_.srr1; return true;
    case kSprSprg0: case kSprSprg1: case kSprSprg2: case kSprSprg3:
      value = regs_.sprg[spr - kSprSprg0];
      return true;
    case kSprPvr: value = 0x80010201; return true;  // MPC7455-like PVR
    case kSprHid0: value = regs_.hid0; return true;
    case kSprHid1: value = regs_.hid1; return true;
    default: {
      const auto it = spr_storage_.find(spr);
      if (it == spr_storage_.end()) return false;
      value = it->second;
      return true;
    }
  }
}

bool RiscfCpu::write_spr(u32 spr, u32 value) {
  switch (spr) {
    case kSprXer: regs_.xer = value; return true;
    case kSprLr: regs_.lr = value; return true;
    case kSprCtr: regs_.ctr = value; return true;
    case kSprDsisr: regs_.dsisr = value; return true;
    case kSprDar: regs_.dar = value; return true;
    case kSprDec: regs_.dec = value; return true;
    case kSprSdr1: regs_.sdr1 = value; return true;
    case kSprSrr0: regs_.srr0 = value; return true;
    case kSprSrr1: regs_.srr1 = value; return true;
    case kSprSprg0: case kSprSprg1: case kSprSprg2: case kSprSprg3:
      regs_.sprg[spr - kSprSprg0] = value;
      return true;
    case kSprPvr: return true;  // read-only; write ignored
    case kSprHid0: regs_.hid0 = value; return true;
    case kSprHid1: regs_.hid1 = value; return true;
    default: {
      const auto it = spr_storage_.find(spr);
      if (it == spr_storage_.end()) return false;
      it->second = value;
      return true;
    }
  }
}

Insn RiscfCpu::decode_at(Addr pc) const {
  const auto tr = space_.translate(pc, 4, mem::Access::kExecute);
  if (!tr.ok()) return Insn{};
  return decode(space_.phys().read32(tr.phys, mem::Endian::kBig));
}

// Per-op execute handlers.  Each is the corresponding case body of the old
// execute() switch, verbatim: fall-through ops advance the PC at the end,
// branch ops assign the PC themselves, raising ops throw before any PC
// update.  Superblocks dispatch through these pointers directly, so the
// switch is resolved once per block at build time instead of once per
// instruction.
struct RiscfOps {
  static void addi(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.rt] = (insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) +
                           static_cast<u32>(insn.simm);
    c.regs_.pc += 4;
  }
  static void addis(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.rt] = (insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) +
                           (static_cast<u32>(insn.simm) << 16);
    c.regs_.pc += 4;
  }
  static void addic(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.rt] = c.regs_.gpr[insn.ra] + static_cast<u32>(insn.simm);
    c.regs_.pc += 4;
  }
  static void mulli(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.rt] = c.regs_.gpr[insn.ra] * static_cast<u32>(insn.simm);
    c.cycles_ += 3;
    c.regs_.pc += 4;
  }
  static void cmpwi(RiscfCpu& c, const Insn& insn) {
    c.compare(insn.crfd, static_cast<i32>(c.regs_.gpr[insn.ra]), insn.simm);
    c.regs_.pc += 4;
  }
  static void cmplwi(RiscfCpu& c, const Insn& insn) {
    c.compare(insn.crfd, c.regs_.gpr[insn.ra], insn.uimm);
    c.regs_.pc += 4;
  }
  static void ori(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = c.regs_.gpr[insn.rt] | insn.uimm;
    c.regs_.pc += 4;
  }
  static void oris(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = c.regs_.gpr[insn.rt] | (insn.uimm << 16);
    c.regs_.pc += 4;
  }
  static void xori(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = c.regs_.gpr[insn.rt] ^ insn.uimm;
    c.regs_.pc += 4;
  }
  static void andi_rec(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = c.regs_.gpr[insn.rt] & insn.uimm;
    c.record_cr0(c.regs_.gpr[insn.ra]);
    c.regs_.pc += 4;
  }
  static void rlwinm(RiscfCpu& c, const Insn& insn) {
    // Mask spans PPC (big-endian numbered) bits mb..me inclusive; for
    // mb > me the mask wraps around.
    const u32 hi_mask = 0xFFFFFFFFu >> insn.mb;
    const u32 lo_mask =
        insn.me == 31 ? 0xFFFFFFFFu : ~((1u << (31 - insn.me)) - 1u);
    const u32 final_mask =
        insn.mb <= insn.me ? (hi_mask & lo_mask) : (hi_mask | lo_mask);
    c.regs_.gpr[insn.ra] = rotl32(c.regs_.gpr[insn.rt], insn.sh) & final_mask;
    if (insn.rc) c.record_cr0(c.regs_.gpr[insn.ra]);
    c.regs_.pc += 4;
  }
  static void load(RiscfCpu& c, const Insn& insn) {
    const Addr ea = (insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) +
                    static_cast<u32>(insn.simm);
    const u8 w = insn.op == Op::kLwz ? 4 : insn.op == Op::kLbz ? 1 : 2;
    u32 v = c.read_mem(ea, w);
    if (insn.op == Op::kLha) v = static_cast<u32>(sign_extend32(v, 16));
    c.regs_.gpr[insn.rt] = v;
    c.regs_.pc += 4;
  }
  static void lwzu(RiscfCpu& c, const Insn& insn) {
    const Addr ea = c.regs_.gpr[insn.ra] + static_cast<u32>(insn.simm);
    c.regs_.gpr[insn.rt] = c.read_mem(ea, 4);
    c.regs_.gpr[insn.ra] = ea;
    c.regs_.pc += 4;
  }
  static void store(RiscfCpu& c, const Insn& insn) {
    const Addr ea = (insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) +
                    static_cast<u32>(insn.simm);
    const u8 w = insn.op == Op::kStw ? 4 : insn.op == Op::kStb ? 1 : 2;
    c.write_mem(ea, w, c.regs_.gpr[insn.rt]);
    c.regs_.pc += 4;
  }
  static void stwu(RiscfCpu& c, const Insn& insn) {
    const Addr ea = c.regs_.gpr[insn.ra] + static_cast<u32>(insn.simm);
    c.write_mem(ea, 4, c.regs_.gpr[insn.rt]);
    c.regs_.gpr[insn.ra] = ea;
    c.regs_.pc += 4;
  }
  static void b(RiscfCpu& c, const Insn& insn) {
    const Addr next = c.regs_.pc + 4;
    c.taken_branch_check();
    if (insn.lk) {
      c.regs_.lr = next;
      c.trace_rw(kSlotLr);
    }
    // Relative target: the PC stays self-derived, no shadow write.
    c.regs_.pc = insn.aa ? static_cast<u32>(insn.li)
                         : c.regs_.pc + static_cast<u32>(insn.li);
  }
  static void bc(RiscfCpu& c, const Insn& insn) {
    const Addr next = c.regs_.pc + 4;
    if (c.branch_cond(insn.bo, insn.bi)) {
      c.taken_branch_check();
      if (insn.lk) {
        c.regs_.lr = next;
        c.trace_rw(kSlotLr);
      }
      c.regs_.pc = insn.aa ? static_cast<u32>(insn.bd)
                           : c.regs_.pc + static_cast<u32>(insn.bd);
      return;
    }
    if (insn.lk) {
      c.regs_.lr = next;
      c.trace_rw(kSlotLr);
    }
    c.regs_.pc = next;
  }
  static void bclr(RiscfCpu& c, const Insn& insn) {
    const Addr next = c.regs_.pc + 4;
    if (c.branch_cond(insn.bo, insn.bi)) {
      c.taken_branch_check();
      c.trace_rr(kSlotLr);
      const u32 target = c.regs_.lr & ~3u;
      if (insn.lk) {
        c.regs_.lr = next;
        c.trace_rw(kSlotLr);
      }
      c.regs_.pc = target;
      c.trace_rw(kSlotPc);  // computed transfer: PC inherits LR's shadow
      return;
    }
    if (insn.lk) {
      c.regs_.lr = next;
      c.trace_rw(kSlotLr);
    }
    c.regs_.pc = next;
  }
  static void bcctr(RiscfCpu& c, const Insn& insn) {
    const Addr next = c.regs_.pc + 4;
    if (c.branch_cond(insn.bo, insn.bi)) {
      c.taken_branch_check();
      c.trace_rr(kSlotCtr);
      const u32 target = c.regs_.ctr & ~3u;
      if (insn.lk) {
        c.regs_.lr = next;
        c.trace_rw(kSlotLr);
      }
      c.regs_.pc = target;
      c.trace_rw(kSlotPc);  // computed transfer: PC inherits CTR's shadow
      return;
    }
    if (insn.lk) {
      c.regs_.lr = next;
      c.trace_rw(kSlotLr);
    }
    c.regs_.pc = next;
  }
  static void sc(RiscfCpu& c, const Insn& insn) {
    (void)insn;
    c.regs_.pc += 4;
    // The trap is the instruction's last act, so it is delivered, not
    // thrown: no C++ unwinding on the syscall path.
    c.deliver(Cause::kSyscall);
  }
  static void add(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.rt] = c.regs_.gpr[insn.ra] + c.regs_.gpr[insn.rb];
    if (insn.rc) c.record_cr0(c.regs_.gpr[insn.rt]);
    c.regs_.pc += 4;
  }
  static void subf(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.rt] = c.regs_.gpr[insn.rb] - c.regs_.gpr[insn.ra];
    if (insn.rc) c.record_cr0(c.regs_.gpr[insn.rt]);
    c.regs_.pc += 4;
  }
  static void neg(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.rt] = 0u - c.regs_.gpr[insn.ra];
    c.regs_.pc += 4;
  }
  static void mullw(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.rt] = c.regs_.gpr[insn.ra] * c.regs_.gpr[insn.rb];
    c.cycles_ += 3;
    if (insn.rc) c.record_cr0(c.regs_.gpr[insn.rt]);
    c.regs_.pc += 4;
  }
  static void divw(RiscfCpu& c, const Insn& insn) {
    // PowerPC division does not trap: /0 and overflow give boundedly
    // undefined results (we use 0), matching the absence of a divide
    // crash category on the G4 (Table 4).
    const i32 a = static_cast<i32>(c.regs_.gpr[insn.ra]);
    const i32 b = static_cast<i32>(c.regs_.gpr[insn.rb]);
    c.cycles_ += 19;
    c.regs_.gpr[insn.rt] =
        (b == 0 || (a == INT32_MIN && b == -1)) ? 0 : static_cast<u32>(a / b);
    c.regs_.pc += 4;
  }
  static void divwu(RiscfCpu& c, const Insn& insn) {
    const u32 b = c.regs_.gpr[insn.rb];
    c.cycles_ += 19;
    c.regs_.gpr[insn.rt] = b == 0 ? 0 : c.regs_.gpr[insn.ra] / b;
    c.regs_.pc += 4;
  }
  static void and_(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = c.regs_.gpr[insn.rt] & c.regs_.gpr[insn.rb];
    if (insn.rc) c.record_cr0(c.regs_.gpr[insn.ra]);
    c.regs_.pc += 4;
  }
  static void or_(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = c.regs_.gpr[insn.rt] | c.regs_.gpr[insn.rb];
    if (insn.rc) c.record_cr0(c.regs_.gpr[insn.ra]);
    c.regs_.pc += 4;
  }
  static void xor_(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = c.regs_.gpr[insn.rt] ^ c.regs_.gpr[insn.rb];
    if (insn.rc) c.record_cr0(c.regs_.gpr[insn.ra]);
    c.regs_.pc += 4;
  }
  static void nor(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = ~(c.regs_.gpr[insn.rt] | c.regs_.gpr[insn.rb]);
    c.regs_.pc += 4;
  }
  static void cntlzw(RiscfCpu& c, const Insn& insn) {
    u32 v = c.regs_.gpr[insn.rt];
    u32 n = 0;
    while (n < 32 && (v & 0x80000000u) == 0) {
      ++n;
      v <<= 1;
    }
    c.regs_.gpr[insn.ra] = n;
    c.regs_.pc += 4;
  }
  static void slw(RiscfCpu& c, const Insn& insn) {
    const u32 sh = c.regs_.gpr[insn.rb] & 63;
    c.regs_.gpr[insn.ra] = sh >= 32 ? 0 : c.regs_.gpr[insn.rt] << sh;
    c.regs_.pc += 4;
  }
  static void srw(RiscfCpu& c, const Insn& insn) {
    const u32 sh = c.regs_.gpr[insn.rb] & 63;
    c.regs_.gpr[insn.ra] = sh >= 32 ? 0 : c.regs_.gpr[insn.rt] >> sh;
    c.regs_.pc += 4;
  }
  static void sraw(RiscfCpu& c, const Insn& insn) {
    const u32 sh = c.regs_.gpr[insn.rb] & 63;
    const i32 v = static_cast<i32>(c.regs_.gpr[insn.rt]);
    c.regs_.gpr[insn.ra] = static_cast<u32>(sh >= 32 ? (v >> 31) : (v >> sh));
    c.regs_.pc += 4;
  }
  static void srawi(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] =
        static_cast<u32>(static_cast<i32>(c.regs_.gpr[insn.rt]) >> insn.sh);
    c.regs_.pc += 4;
  }
  static void cmp(RiscfCpu& c, const Insn& insn) {
    c.compare(insn.crfd, static_cast<i32>(c.regs_.gpr[insn.ra]),
              static_cast<i32>(c.regs_.gpr[insn.rb]));
    c.regs_.pc += 4;
  }
  static void cmpl(RiscfCpu& c, const Insn& insn) {
    c.compare(insn.crfd, c.regs_.gpr[insn.ra], c.regs_.gpr[insn.rb]);
    c.regs_.pc += 4;
  }
  static void mfspr(RiscfCpu& c, const Insn& insn) {
    if (insn.spr != kSprLr && insn.spr != kSprCtr && insn.spr != kSprXer) {
      c.require_supervisor();
    }
    u32 v = 0;
    if (!c.read_spr(insn.spr, v)) {
      c.raise(Cause::kIllegalInstruction, 0, false, insn.raw);
    }
    c.regs_.gpr[insn.rt] = v;
    c.regs_.pc += 4;
  }
  static void mtspr(RiscfCpu& c, const Insn& insn) {
    if (insn.spr != kSprLr && insn.spr != kSprCtr && insn.spr != kSprXer) {
      c.require_supervisor();
    }
    if (!c.write_spr(insn.spr, c.regs_.gpr[insn.rt])) {
      c.raise(Cause::kIllegalInstruction, 0, false, insn.raw);
    }
    c.regs_.pc += 4;
  }
  static void mfmsr(RiscfCpu& c, const Insn& insn) {
    c.require_supervisor();
    c.regs_.gpr[insn.rt] = c.regs_.msr;
    c.regs_.pc += 4;
  }
  static void mtmsr(RiscfCpu& c, const Insn& insn) {
    c.require_supervisor();
    c.regs_.msr = c.regs_.gpr[insn.rt];
    c.regs_.pc += 4;
  }
  static void mfcr(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.rt] = c.regs_.cr;
    c.regs_.pc += 4;
  }
  static void loadx(RiscfCpu& c, const Insn& insn) {
    const Addr ea =
        (insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) + c.regs_.gpr[insn.rb];
    const u8 w = insn.op == Op::kLwzx ? 4 : insn.op == Op::kLbzx ? 1 : 2;
    u32 v = c.read_mem(ea, w);
    if (insn.op == Op::kLhax) v = static_cast<u32>(sign_extend32(v, 16));
    c.regs_.gpr[insn.rt] = v;
    c.regs_.pc += 4;
  }
  static void storex(RiscfCpu& c, const Insn& insn) {
    const Addr ea =
        (insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) + c.regs_.gpr[insn.rb];
    const u8 w = insn.op == Op::kStwx ? 4 : insn.op == Op::kStbx ? 1 : 2;
    c.write_mem(ea, w, c.regs_.gpr[insn.rt]);
    c.regs_.pc += 4;
  }
  static void tw(RiscfCpu& c, const Insn& insn) {
    const i32 a = static_cast<i32>(c.regs_.gpr[insn.ra]);
    const i32 b = static_cast<i32>(c.regs_.gpr[insn.rb]);
    const u32 ua = c.regs_.gpr[insn.ra], ub = c.regs_.gpr[insn.rb];
    const u8 to = insn.to;
    const bool trap = ((to & 16) && a < b) || ((to & 8) && a > b) ||
                      ((to & 4) && a == b) || ((to & 2) && ua < ub) ||
                      ((to & 1) && ua > ub);
    if (trap) c.raise(Cause::kTrapWord, 0, false, insn.raw);
    c.regs_.pc += 4;
  }
  static void twi(RiscfCpu& c, const Insn& insn) {
    const i32 a = static_cast<i32>(c.regs_.gpr[insn.ra]);
    const u32 ua = c.regs_.gpr[insn.ra];
    const u8 to = insn.to;
    const bool trap = ((to & 16) && a < insn.simm) ||
                      ((to & 8) && a > insn.simm) ||
                      ((to & 4) && a == insn.simm) ||
                      ((to & 2) && ua < static_cast<u32>(insn.simm)) ||
                      ((to & 1) && ua > static_cast<u32>(insn.simm));
    if (trap) c.raise(Cause::kTrapWord, 0, false, insn.raw);
    c.regs_.pc += 4;
  }
  static void subfic(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.rt] = static_cast<u32>(insn.simm) - c.regs_.gpr[insn.ra];
    c.regs_.pc += 4;
  }
  static void addic_rec(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.rt] = c.regs_.gpr[insn.ra] + static_cast<u32>(insn.simm);
    c.record_cr0(c.regs_.gpr[insn.rt]);
    c.regs_.pc += 4;
  }
  static void xoris(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = c.regs_.gpr[insn.rt] ^ (insn.uimm << 16);
    c.regs_.pc += 4;
  }
  static void andis_rec(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = c.regs_.gpr[insn.rt] & (insn.uimm << 16);
    c.record_cr0(c.regs_.gpr[insn.ra]);
    c.regs_.pc += 4;
  }
  static void rlwimi(RiscfCpu& c, const Insn& insn) {
    const u32 hi_mask = 0xFFFFFFFFu >> insn.mb;
    const u32 lo_mask =
        insn.me == 31 ? 0xFFFFFFFFu : ~((1u << (31 - insn.me)) - 1u);
    const u32 mask =
        insn.mb <= insn.me ? (hi_mask & lo_mask) : (hi_mask | lo_mask);
    c.regs_.gpr[insn.ra] = (rotl32(c.regs_.gpr[insn.rt], insn.sh) & mask) |
                           (c.regs_.gpr[insn.ra] & ~mask);
    if (insn.rc) c.record_cr0(c.regs_.gpr[insn.ra]);
    c.regs_.pc += 4;
  }
  static void rlwnm(RiscfCpu& c, const Insn& insn) {
    const u32 hi_mask = 0xFFFFFFFFu >> insn.mb;
    const u32 lo_mask =
        insn.me == 31 ? 0xFFFFFFFFu : ~((1u << (31 - insn.me)) - 1u);
    const u32 mask =
        insn.mb <= insn.me ? (hi_mask & lo_mask) : (hi_mask | lo_mask);
    c.regs_.gpr[insn.ra] =
        rotl32(c.regs_.gpr[insn.rt], c.regs_.gpr[insn.rb] & 31) & mask;
    if (insn.rc) c.record_cr0(c.regs_.gpr[insn.ra]);
    c.regs_.pc += 4;
  }
  static void andc(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = c.regs_.gpr[insn.rt] & ~c.regs_.gpr[insn.rb];
    if (insn.rc) c.record_cr0(c.regs_.gpr[insn.ra]);
    c.regs_.pc += 4;
  }
  static void orc(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = c.regs_.gpr[insn.rt] | ~c.regs_.gpr[insn.rb];
    c.regs_.pc += 4;
  }
  static void nand(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = ~(c.regs_.gpr[insn.rt] & c.regs_.gpr[insn.rb]);
    c.regs_.pc += 4;
  }
  static void eqv(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] = ~(c.regs_.gpr[insn.rt] ^ c.regs_.gpr[insn.rb]);
    c.regs_.pc += 4;
  }
  static void extsb(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] =
        static_cast<u32>(sign_extend32(c.regs_.gpr[insn.rt] & 0xFF, 8));
    c.regs_.pc += 4;
  }
  static void extsh(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.ra] =
        static_cast<u32>(sign_extend32(c.regs_.gpr[insn.rt] & 0xFFFF, 16));
    c.regs_.pc += 4;
  }
  static void mulhw(RiscfCpu& c, const Insn& insn) {
    const i64 p = static_cast<i64>(static_cast<i32>(c.regs_.gpr[insn.ra])) *
                  static_cast<i32>(c.regs_.gpr[insn.rb]);
    c.regs_.gpr[insn.rt] = static_cast<u32>(static_cast<u64>(p) >> 32);
    c.cycles_ += 3;
    c.regs_.pc += 4;
  }
  static void mulhwu(RiscfCpu& c, const Insn& insn) {
    const u64 p = static_cast<u64>(c.regs_.gpr[insn.ra]) * c.regs_.gpr[insn.rb];
    c.regs_.gpr[insn.rt] = static_cast<u32>(p >> 32);
    c.cycles_ += 3;
    c.regs_.pc += 4;
  }
  static void loadu(RiscfCpu& c, const Insn& insn) {
    const Addr ea = c.regs_.gpr[insn.ra] + static_cast<u32>(insn.simm);
    const u8 w = insn.op == Op::kLbzu ? 1 : 2;
    u32 v = c.read_mem(ea, w);
    if (insn.op == Op::kLhau) v = static_cast<u32>(sign_extend32(v, 16));
    c.regs_.gpr[insn.rt] = v;
    c.regs_.gpr[insn.ra] = ea;
    c.regs_.pc += 4;
  }
  static void storeu(RiscfCpu& c, const Insn& insn) {
    const Addr ea = c.regs_.gpr[insn.ra] + static_cast<u32>(insn.simm);
    c.write_mem(ea, insn.op == Op::kStbu ? 1 : 2, c.regs_.gpr[insn.rt]);
    c.regs_.gpr[insn.ra] = ea;
    c.regs_.pc += 4;
  }
  static void lmw(RiscfCpu& c, const Insn& insn) {
    // Load multiple: rt..r31 from consecutive words.
    Addr ea = (insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) +
              static_cast<u32>(insn.simm);
    for (u32 r = insn.rt; r < 32; ++r, ea += 4) {
      c.regs_.gpr[r] = c.read_mem(ea, 4);
    }
    c.regs_.pc += 4;
  }
  static void stmw(RiscfCpu& c, const Insn& insn) {
    Addr ea = (insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) +
              static_cast<u32>(insn.simm);
    for (u32 r = insn.rt; r < 32; ++r, ea += 4) {
      c.write_mem(ea, 4, c.regs_.gpr[r]);
    }
    c.regs_.pc += 4;
  }
  static void lf(RiscfCpu& c, const Insn& insn) {
    // FP load: the memory access (and its faults) happen; the loaded
    // value goes to the unmodeled FP register file.
    const Addr ea = (insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) +
                    static_cast<u32>(insn.simm);
    c.read_mem(ea, 4);
    if (insn.op == Op::kLfd) c.read_mem(ea + 4, 4);
    c.cycles_ += 1;
    c.regs_.pc += 4;
  }
  static void lfu(RiscfCpu& c, const Insn& insn) {
    const Addr ea = c.regs_.gpr[insn.ra] + static_cast<u32>(insn.simm);
    c.read_mem(ea, 4);
    if (insn.op == Op::kLfdu) c.read_mem(ea + 4, 4);
    c.regs_.gpr[insn.ra] = ea;
    c.cycles_ += 1;
    c.regs_.pc += 4;
  }
  static void stf(RiscfCpu& c, const Insn& insn) {
    const Addr ea = (insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) +
                    static_cast<u32>(insn.simm);
    c.write_mem(ea, 4, 0);  // unmodeled FP register contents
    if (insn.op == Op::kStfd) c.write_mem(ea + 4, 4, 0);
    c.cycles_ += 1;
    c.regs_.pc += 4;
  }
  static void stfu(RiscfCpu& c, const Insn& insn) {
    const Addr ea = c.regs_.gpr[insn.ra] + static_cast<u32>(insn.simm);
    c.write_mem(ea, 4, 0);
    if (insn.op == Op::kStfdu) c.write_mem(ea + 4, 4, 0);
    c.regs_.gpr[insn.ra] = ea;
    c.cycles_ += 1;
    c.regs_.pc += 4;
  }
  static void fp_arith(RiscfCpu& c, const Insn& insn) {
    (void)insn;
    c.cycles_ += 3;
    c.regs_.pc += 4;
  }
  static void vec_arith(RiscfCpu& c, const Insn& insn) {
    (void)insn;
    c.cycles_ += 2;
    c.regs_.pc += 4;
  }
  static void lwarx(RiscfCpu& c, const Insn& insn) {
    const Addr ea =
        (insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) + c.regs_.gpr[insn.rb];
    c.regs_.gpr[insn.rt] = c.read_mem(ea, 4);
    c.regs_.pc += 4;
  }
  static void stwcx(RiscfCpu& c, const Insn& insn) {
    const Addr ea =
        (insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) + c.regs_.gpr[insn.rb];
    c.write_mem(ea, 4, c.regs_.gpr[insn.rt]);
    c.set_cr_field(0, 2);  // EQ: store succeeded
    c.regs_.pc += 4;
  }
  static void dcbz(RiscfCpu& c, const Insn& insn) {
    // Zero a 32-byte cache block: a potent memory-corruption source
    // when reached through corrupted code.
    const Addr ea =
        ((insn.ra == 0 ? 0 : c.regs_.gpr[insn.ra]) + c.regs_.gpr[insn.rb]) &
        ~31u;
    for (u32 off = 0; off < 32; off += 4) c.write_mem(ea + off, 4, 0);
    c.regs_.pc += 4;
  }
  static void dcbt(RiscfCpu& c, const Insn& insn) {
    (void)insn;
    c.cycles_ += 1;  // cache touch/maintenance: harmless
    c.regs_.pc += 4;
  }
  static void mftb(RiscfCpu& c, const Insn& insn) {
    c.regs_.gpr[insn.rt] = static_cast<u32>(c.cycles_);
    c.regs_.pc += 4;
  }
  static void mtcrf(RiscfCpu& c, const Insn& insn) {
    c.regs_.cr = c.regs_.gpr[insn.rt];
    c.regs_.pc += 4;
  }
  static void cr_logical(RiscfCpu& c, const Insn& insn) {
    (void)insn;
    c.cycles_ += 1;  // CR-field shuffling: no modeled effect
    c.regs_.pc += 4;
  }
  static void barrier(RiscfCpu& c, const Insn& insn) {
    (void)insn;
    c.cycles_ += 2;
    c.regs_.pc += 4;
  }
  [[noreturn]] static void invalid(RiscfCpu& c, const Insn& insn) {
    c.raise(Cause::kIllegalInstruction, 0, false, insn.raw);
  }
};

namespace {

using OpFn = void (*)(RiscfCpu&, const Insn&);

const std::array<OpFn, kNumOps>& op_table() {
  static const std::array<OpFn, kNumOps> table = [] {
    std::array<OpFn, kNumOps> t{};
    auto set = [&t](Op op, OpFn fn) { t[static_cast<size_t>(op)] = fn; };
    set(Op::kInvalid, &RiscfOps::invalid);
    set(Op::kAddi, &RiscfOps::addi);
    set(Op::kAddis, &RiscfOps::addis);
    set(Op::kAddic, &RiscfOps::addic);
    set(Op::kMulli, &RiscfOps::mulli);
    set(Op::kCmpwi, &RiscfOps::cmpwi);
    set(Op::kCmplwi, &RiscfOps::cmplwi);
    set(Op::kOri, &RiscfOps::ori);
    set(Op::kOris, &RiscfOps::oris);
    set(Op::kXori, &RiscfOps::xori);
    set(Op::kAndiRec, &RiscfOps::andi_rec);
    set(Op::kRlwinm, &RiscfOps::rlwinm);
    set(Op::kLwz, &RiscfOps::load);
    set(Op::kLwzu, &RiscfOps::lwzu);
    set(Op::kLbz, &RiscfOps::load);
    set(Op::kLhz, &RiscfOps::load);
    set(Op::kLha, &RiscfOps::load);
    set(Op::kStw, &RiscfOps::store);
    set(Op::kStwu, &RiscfOps::stwu);
    set(Op::kStb, &RiscfOps::store);
    set(Op::kSth, &RiscfOps::store);
    set(Op::kB, &RiscfOps::b);
    set(Op::kBc, &RiscfOps::bc);
    set(Op::kBclr, &RiscfOps::bclr);
    set(Op::kBcctr, &RiscfOps::bcctr);
    set(Op::kSc, &RiscfOps::sc);
    set(Op::kAdd, &RiscfOps::add);
    set(Op::kSubf, &RiscfOps::subf);
    set(Op::kNeg, &RiscfOps::neg);
    set(Op::kMullw, &RiscfOps::mullw);
    set(Op::kDivw, &RiscfOps::divw);
    set(Op::kDivwu, &RiscfOps::divwu);
    set(Op::kAnd, &RiscfOps::and_);
    set(Op::kOr, &RiscfOps::or_);
    set(Op::kXor, &RiscfOps::xor_);
    set(Op::kNor, &RiscfOps::nor);
    set(Op::kCntlzw, &RiscfOps::cntlzw);
    set(Op::kSlw, &RiscfOps::slw);
    set(Op::kSrw, &RiscfOps::srw);
    set(Op::kSraw, &RiscfOps::sraw);
    set(Op::kSrawi, &RiscfOps::srawi);
    set(Op::kCmp, &RiscfOps::cmp);
    set(Op::kCmpl, &RiscfOps::cmpl);
    set(Op::kMfspr, &RiscfOps::mfspr);
    set(Op::kMtspr, &RiscfOps::mtspr);
    set(Op::kMfmsr, &RiscfOps::mfmsr);
    set(Op::kMtmsr, &RiscfOps::mtmsr);
    set(Op::kMfcr, &RiscfOps::mfcr);
    set(Op::kLwzx, &RiscfOps::loadx);
    set(Op::kStwx, &RiscfOps::storex);
    set(Op::kLbzx, &RiscfOps::loadx);
    set(Op::kStbx, &RiscfOps::storex);
    set(Op::kLhzx, &RiscfOps::loadx);
    set(Op::kLhax, &RiscfOps::loadx);
    set(Op::kSthx, &RiscfOps::storex);
    set(Op::kTw, &RiscfOps::tw);
    set(Op::kTwi, &RiscfOps::twi);
    set(Op::kSync, &RiscfOps::barrier);
    set(Op::kIsync, &RiscfOps::barrier);
    set(Op::kDcbf, &RiscfOps::barrier);
    set(Op::kIcbi, &RiscfOps::barrier);
    set(Op::kLbzu, &RiscfOps::loadu);
    set(Op::kLhzu, &RiscfOps::loadu);
    set(Op::kLhau, &RiscfOps::loadu);
    set(Op::kStbu, &RiscfOps::storeu);
    set(Op::kSthu, &RiscfOps::storeu);
    set(Op::kLmw, &RiscfOps::lmw);
    set(Op::kStmw, &RiscfOps::stmw);
    set(Op::kLfs, &RiscfOps::lf);
    set(Op::kLfsu, &RiscfOps::lfu);
    set(Op::kLfd, &RiscfOps::lf);
    set(Op::kLfdu, &RiscfOps::lfu);
    set(Op::kStfs, &RiscfOps::stf);
    set(Op::kStfsu, &RiscfOps::stfu);
    set(Op::kStfd, &RiscfOps::stf);
    set(Op::kStfdu, &RiscfOps::stfu);
    set(Op::kFpArith, &RiscfOps::fp_arith);
    set(Op::kVecArith, &RiscfOps::vec_arith);
    set(Op::kSubfic, &RiscfOps::subfic);
    set(Op::kAddicRec, &RiscfOps::addic_rec);
    set(Op::kXoris, &RiscfOps::xoris);
    set(Op::kAndisRec, &RiscfOps::andis_rec);
    set(Op::kRlwimi, &RiscfOps::rlwimi);
    set(Op::kRlwnm, &RiscfOps::rlwnm);
    set(Op::kAndc, &RiscfOps::andc);
    set(Op::kOrc, &RiscfOps::orc);
    set(Op::kNand, &RiscfOps::nand);
    set(Op::kEqv, &RiscfOps::eqv);
    set(Op::kExtsb, &RiscfOps::extsb);
    set(Op::kExtsh, &RiscfOps::extsh);
    set(Op::kMulhw, &RiscfOps::mulhw);
    set(Op::kMulhwu, &RiscfOps::mulhwu);
    set(Op::kLwarx, &RiscfOps::lwarx);
    set(Op::kStwcx, &RiscfOps::stwcx);
    set(Op::kDcbz, &RiscfOps::dcbz);
    set(Op::kDcbt, &RiscfOps::dcbt);
    set(Op::kMftb, &RiscfOps::mftb);
    set(Op::kMtcrf, &RiscfOps::mtcrf);
    set(Op::kCrLogical, &RiscfOps::cr_logical);
    set(Op::kMcrf, &RiscfOps::cr_logical);
    for (const OpFn fn : t) {
      KFI_CHECK(fn != nullptr, "riscf op handler table incomplete");
    }
    return t;
  }();
  return table;
}

}  // namespace

bool RiscfCpu::block_terminator(const Insn& insn) {
  switch (insn.op) {
    // Control transfers end the straight-line run; syscalls hand control
    // to the kernel glue; mtmsr can toggle MSR.IR/DR/EE, which the hoisted
    // per-block translation check and the machine loop's timer-eligibility
    // test must observe at a block boundary.
    case Op::kB: case Op::kBc: case Op::kBclr: case Op::kBcctr:
    case Op::kSc: case Op::kMtmsr:
      return true;
    default:
      return false;
  }
}

bool RiscfCpu::block_entry(u32* phys0) const {
  // Translation off or an unaligned/unfetchable pc: step() raises with
  // its own bookkeeping.  MSR.IR can only change in-block via mtmsr or a
  // trap, both of which end the block, so checking at dispatch is exact;
  // non-branch instructions advance the pc by 4, keeping it aligned.  An
  // aligned word fetch never crosses a page, so the fast path fails only
  // when the pc is unfetchable.
  return (regs_.msr & kMsrIR) != 0 && (regs_.pc & 3) == 0 &&
         space_.try_translate(regs_.pc, 4, mem::Access::kExecute, phys0);
}

void RiscfCpu::build_block(std::vector<BlockInsn>& insns, Addr /*vpc*/,
                           u32 phys0) const {
  const mem::PhysicalMemory& pm = space_.phys();
  const u32 page = phys0 >> mem::kPageShift;
  u32 phys = phys0;
  while (insns.size() < kMaxBlockInsns && (phys >> mem::kPageShift) == page) {
    const Insn insn = decode(pm.read32(phys, mem::Endian::kBig));
    // Invalid encodings single-step: step() raises with insn.raw as aux.
    if (insn.op == Op::kInvalid) break;
    insns.push_back({insn, op_table()[static_cast<size_t>(insn.op)], phys});
    phys += 4;
    if (block_terminator(insn)) break;
  }
}

RiscfCpu::BlockInsn RiscfCpu::fetch_decode() {
  if ((regs_.msr & kMsrIR) == 0) {
    raise(Cause::kMachineCheck, regs_.pc, true);
  }
  if ((regs_.pc & 3) != 0) {
    raise(Cause::kInstrStorage, regs_.pc, true);
  }
  const auto tr = space_.translate(regs_.pc, 4, mem::Access::kExecute);
  if (!tr.ok()) {
    if (tr.fault->kind == mem::FaultKind::kBusRegion) {
      raise(Cause::kMachineCheck, regs_.pc, true);
    }
    raise(Cause::kInstrStorage, regs_.pc, true);
  }
  // The uncached reference: decode the word as it is now, so a corrupted
  // or rewritten instruction takes effect at its next fetch.
  const Insn insn = decode(space_.phys().read32(tr.phys, mem::Endian::kBig));
  ++decode_stats_.misses;
  if (insn.op == Op::kInvalid) {
    raise(Cause::kIllegalInstruction, 0, false, insn.raw);
  }
  const BlockInsn bi{insn, op_table()[static_cast<size_t>(insn.op)], tr.phys};
  if (sink_ != nullptr) trace_fetch(bi);
  return bi;
}

void RiscfCpu::trace_reads(const Insn& insn) {
  const auto r = [this](u32 slot) {
    sink_->on_reg_read(static_cast<trace::RegSlot>(slot));
  };
  // (ra|0) operands read the literal zero when ra == 0, not r0.
  const auto ra0 = [&] {
    if (insn.ra != 0) r(insn.ra);
  };
  switch (insn.op) {
    case Op::kAddi: case Op::kAddis:
    case Op::kLwz: case Op::kLbz: case Op::kLhz: case Op::kLha:
    case Op::kLfs: case Op::kLfd:
    case Op::kStfs: case Op::kStfd:
    case Op::kLmw:
      ra0();
      break;
    case Op::kAddic: case Op::kAddicRec: case Op::kMulli:
    case Op::kCmpwi: case Op::kCmplwi: case Op::kSubfic: case Op::kTwi:
    case Op::kNeg:
    case Op::kLwzu: case Op::kLbzu: case Op::kLhzu: case Op::kLhau:
    case Op::kLfsu: case Op::kLfdu: case Op::kStfsu: case Op::kStfdu:
      r(insn.ra);
      break;
    case Op::kOri: case Op::kOris: case Op::kXori: case Op::kXoris:
    case Op::kAndiRec: case Op::kAndisRec: case Op::kRlwinm:
    case Op::kSrawi: case Op::kExtsb: case Op::kExtsh: case Op::kCntlzw:
    case Op::kMtcrf: case Op::kMtmsr: case Op::kMtspr:
      r(insn.rt);
      break;
    case Op::kAdd: case Op::kSubf: case Op::kMullw:
    case Op::kDivw: case Op::kDivwu: case Op::kMulhw: case Op::kMulhwu:
    case Op::kCmp: case Op::kCmpl: case Op::kTw:
      r(insn.ra);
      r(insn.rb);
      break;
    case Op::kAnd: case Op::kOr: case Op::kXor: case Op::kNor:
    case Op::kAndc: case Op::kOrc: case Op::kNand: case Op::kEqv:
    case Op::kSlw: case Op::kSrw: case Op::kSraw: case Op::kRlwnm:
      r(insn.rt);
      r(insn.rb);
      break;
    case Op::kRlwimi:  // inserts into ra: destination bits are also a source
      r(insn.rt);
      r(insn.ra);
      break;
    case Op::kStw: case Op::kStb: case Op::kSth:
      ra0();
      r(insn.rt);
      break;
    case Op::kStwu: case Op::kStbu: case Op::kSthu:
      r(insn.ra);
      r(insn.rt);
      break;
    case Op::kLwzx: case Op::kLbzx: case Op::kLhzx: case Op::kLhax:
    case Op::kLwarx: case Op::kDcbz:
      ra0();
      r(insn.rb);
      break;
    case Op::kStwx: case Op::kStbx: case Op::kSthx: case Op::kStwcx:
      ra0();
      r(insn.rb);
      r(insn.rt);
      break;
    case Op::kStmw:
      ra0();
      for (u32 g = insn.rt; g < kNumGprs; ++g) r(g);
      break;
    case Op::kMfspr:
      r(spr_slot(insn.spr));
      break;
    case Op::kMfmsr:
      r(kSlotMsr);
      break;
    case Op::kMfcr:
      r(kSlotCr);
      break;
    default:
      // Branches, CR helpers, and SPR-less ops hook themselves (or touch
      // no registers).
      break;
  }
}

void RiscfCpu::trace_writes(const Insn& insn) {
  const auto w = [this](u32 slot) {
    sink_->on_reg_write(static_cast<trace::RegSlot>(slot));
  };
  switch (insn.op) {
    case Op::kAddi: case Op::kAddis: case Op::kAddic: case Op::kAddicRec:
    case Op::kMulli: case Op::kSubfic:
    case Op::kAdd: case Op::kSubf: case Op::kNeg: case Op::kMullw:
    case Op::kDivw: case Op::kDivwu: case Op::kMulhw: case Op::kMulhwu:
    case Op::kLwz: case Op::kLbz: case Op::kLhz: case Op::kLha:
    case Op::kLwzx: case Op::kLbzx: case Op::kLhzx: case Op::kLhax:
    case Op::kLwarx: case Op::kMftb:
    case Op::kMfspr: case Op::kMfmsr: case Op::kMfcr:
      w(insn.rt);
      break;
    case Op::kOri: case Op::kOris: case Op::kXori: case Op::kXoris:
    case Op::kAndiRec: case Op::kAndisRec: case Op::kRlwinm:
    case Op::kRlwimi: case Op::kRlwnm:
    case Op::kAnd: case Op::kOr: case Op::kXor: case Op::kNor:
    case Op::kAndc: case Op::kOrc: case Op::kNand: case Op::kEqv:
    case Op::kSlw: case Op::kSrw: case Op::kSraw: case Op::kSrawi:
    case Op::kCntlzw: case Op::kExtsb: case Op::kExtsh:
      w(insn.ra);
      break;
    case Op::kLwzu: case Op::kLbzu: case Op::kLhzu: case Op::kLhau:
      w(insn.rt);
      w(insn.ra);
      break;
    case Op::kStwu: case Op::kStbu: case Op::kSthu:
    case Op::kLfsu: case Op::kLfdu: case Op::kStfsu: case Op::kStfdu:
      w(insn.ra);
      break;
    case Op::kLmw:
      for (u32 g = insn.rt; g < kNumGprs; ++g) w(g);
      break;
    case Op::kMtspr:
      w(spr_slot(insn.spr));
      break;
    case Op::kMtmsr:
      w(kSlotMsr);
      break;
    case Op::kMtcrf:
      w(kSlotCr);  // whole-CR move, unlike the field-wise merges
      break;
    default:
      break;
  }
}

isa::CpuSnapshot RiscfCpu::snapshot() const {
  isa::CpuSnapshot snap;
  snap.cycles = cycles_;
  snap.words.reserve(kNumGprs + 16 + spr_storage_.size());
  for (u32 i = 0; i < kNumGprs; ++i) snap.words.push_back(regs_.gpr[i]);
  snap.words.push_back(regs_.pc);
  snap.words.push_back(regs_.lr);
  snap.words.push_back(regs_.ctr);
  snap.words.push_back(regs_.cr);
  snap.words.push_back(regs_.xer);
  snap.words.push_back(regs_.msr);
  snap.words.push_back(regs_.srr0);
  snap.words.push_back(regs_.srr1);
  snap.words.push_back(regs_.dsisr);
  snap.words.push_back(regs_.dar);
  snap.words.push_back(regs_.dec);
  snap.words.push_back(regs_.sdr1);
  for (int i = 0; i < 4; ++i) snap.words.push_back(regs_.sprg[i]);
  snap.words.push_back(regs_.hid0);
  snap.words.push_back(regs_.hid1);
  for (const auto& [spr, value] : spr_storage_) snap.words.push_back(value);
  return snap;
}

void RiscfCpu::restore(const isa::CpuSnapshot& snap) {
  KFI_CHECK(snap.words.size() == kNumGprs + 18 + spr_storage_.size(),
            "riscf snapshot size mismatch");
  size_t i = 0;
  for (u32 g = 0; g < kNumGprs; ++g) regs_.gpr[g] = snap.words[i++];
  regs_.pc = snap.words[i++];
  regs_.lr = snap.words[i++];
  regs_.ctr = snap.words[i++];
  regs_.cr = snap.words[i++];
  regs_.xer = snap.words[i++];
  regs_.msr = snap.words[i++];
  regs_.srr0 = snap.words[i++];
  regs_.srr1 = snap.words[i++];
  regs_.dsisr = snap.words[i++];
  regs_.dar = snap.words[i++];
  regs_.dec = snap.words[i++];
  regs_.sdr1 = snap.words[i++];
  for (int s = 0; s < 4; ++s) regs_.sprg[s] = snap.words[i++];
  regs_.hid0 = snap.words[i++];
  regs_.hid1 = snap.words[i++];
  for (auto& [spr, value] : spr_storage_) value = snap.words[i++];
  cycles_ = snap.cycles;
  debug_.clear_all();
}

}  // namespace kfi::riscf

template class kfi::isa::SuperblockEngine<kfi::riscf::RiscfCpu,
                                          kfi::riscf::Insn>;
