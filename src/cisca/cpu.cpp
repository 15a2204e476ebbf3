#include "cisca/cpu.hpp"

#include <algorithm>
#include <array>

#include "cisca/sysregs.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"

namespace kfi::cisca {

namespace {

// Fixed GDT: the two data segments the kernel loads into FS and GS at boot
// (per-CPU data windows).  Any other selector value #GPs on use, which is
// how a bit flip in FS/GS eventually crashes — often only after a very
// long latency, because these segments are rarely referenced (the paper
// measured >1G cycles for FS/GS errors).
constexpr SegDescriptor kGdt[] = {
    {0x30, 0xC0003000u, 0x7F},  // FS: per-cpu window
    {0x38, 0xC0003080u, 0x7F},  // GS: per-cpu window
};

constexpr u32 kWidthMask[5] = {0, 0xFFu, 0xFFFFu, 0, 0xFFFFFFFFu};
constexpr u32 kSignBit[5] = {0, 0x80u, 0x8000u, 0, 0x80000000u};

bool parity_even(u32 v) { return (popcount32(v & 0xFF) & 1) == 0; }

constexpr size_t kNumOps = static_cast<size_t>(Op::kFwait) + 1;

}  // namespace

const SegDescriptor* lookup_descriptor(u32 selector) {
  for (const auto& d : kGdt) {
    if (d.selector == selector) return &d;
  }
  return nullptr;
}

CiscaCpu::CiscaCpu(mem::AddressSpace& space, Options options)
    : Engine(space), options_(options),
      sysregs_(std::make_unique<CiscaSysRegs>(*this)) {}

CiscaCpu::~CiscaCpu() = default;

isa::SystemRegisterBank& CiscaCpu::sysregs() { return *sysregs_; }

isa::Trap CiscaCpu::make_trap(Cause cause, Addr addr, bool has_addr,
                              u32 aux) {
  isa::Trap trap;
  trap.cause = static_cast<u32>(cause);
  trap.pc = regs_.eip;
  trap.addr = addr;
  trap.has_addr = has_addr;
  trap.aux = aux;
  if (cause == Cause::kPageFault) regs_.cr2 = addr;
  return trap;
}

FetchWindow CiscaCpu::fetch_window(Addr pc) const {
  FetchWindow window;
  window.pc = pc;
  // One translation per page touched: fill from the first page, then (only
  // if the window straddles a boundary) from the next.  One-byte fetches
  // never cross a page, so the fast path fails only on a fault.
  u32 phys = 0;
  if (!space_.try_translate(pc, 1, mem::Access::kExecute, &phys)) {
    return window;
  }
  window.phys = phys;
  const u32 in_page = mem::kPageSize - (pc & (mem::kPageSize - 1));
  const u32 first = std::min<u32>(kMaxInsnBytes, in_page);
  space_.phys().read_bytes(phys, window.bytes, first);
  window.valid = static_cast<u8>(first);
  if (first < kMaxInsnBytes) {
    u32 phys2 = 0;
    if (space_.try_translate(pc + first, 1, mem::Access::kExecute, &phys2)) {
      window.phys_page2 = phys2 >> mem::kPageShift;
      space_.phys().read_bytes(phys2, window.bytes + first,
                               kMaxInsnBytes - first);
      window.valid = kMaxInsnBytes;
    }
  }
  return window;
}

DecodeResult CiscaCpu::decode_at(Addr pc) const {
  return decode(fetch_window(pc));
}

u32 CiscaCpu::resolve_seg_base(SegOverride seg, u32 offset) {
  if (seg == SegOverride::kNone) return offset;
  trace_rr(seg == SegOverride::kFs ? kSlotFs : kSlotGs);
  const u32 selector = (seg == SegOverride::kFs) ? regs_.fs : regs_.gs;
  const SegDescriptor* desc = lookup_descriptor(selector);
  if (desc == nullptr) {
    raise(Cause::kGeneralProtection, 0, false, selector);
  }
  if (offset > desc->limit) {
    raise(Cause::kGeneralProtection, 0, false, selector);
  }
  return desc->base + offset;
}

u32 CiscaCpu::effective_addr(const MemOperand& mem) {
  u32 addr = static_cast<u32>(mem.disp);
  if (mem.base != MemOperand::kNoReg) {
    trace_rr(mem.base);
    addr += regs_.gpr[mem.base];
  }
  if (mem.index != MemOperand::kNoReg) {
    trace_rr(mem.index);
    addr += regs_.gpr[mem.index] * mem.scale;
  }
  return resolve_seg_base(mem.seg, addr);
}

u32 CiscaCpu::read_mem(Addr addr, u8 width) {
  u32 phys = 0;
  if (!space_.try_translate(addr, width, mem::Access::kRead, &phys)) {
    const auto tr = space_.translate(addr, width, mem::Access::kRead);
    if (!tr.ok()) raise(Cause::kPageFault, addr, true);
    phys = tr.phys;
  }
  cycles_ += 2;
  u32 value = 0;
  switch (width) {
    case 1: value = space_.phys().read8(phys); break;
    case 2: value = space_.phys().read16(phys, mem::Endian::kLittle); break;
    case 4: value = space_.phys().read32(phys, mem::Endian::kLittle); break;
    default: KFI_CHECK(false, "bad width");
  }
  note_data_access(addr, width, /*is_write=*/false);
  if (sink_ != nullptr) sink_->on_mem_read(addr, phys, width);
  return value;
}

void CiscaCpu::write_mem(Addr addr, u8 width, u32 value) {
  u32 phys = 0;
  if (!space_.try_translate(addr, width, mem::Access::kWrite, &phys)) {
    const auto tr = space_.translate(addr, width, mem::Access::kWrite);
    if (tr.ok()) {
      phys = tr.phys;
    } else {
      // With CR0.WP cleared (a possible register-injection effect), the
      // supervisor ignores write protection, like real IA-32: the store
      // goes through the read translation (phys 0 if even that faults).
      const bool wp_off = !test_bit(regs_.cr0, kCr0WP);
      const bool only_wp = tr.fault->kind == mem::FaultKind::kNoWrite;
      if (!(wp_off && only_wp)) raise(Cause::kPageFault, addr, true);
      const auto rd = space_.translate(addr, width, mem::Access::kRead);
      phys = rd.ok() ? rd.phys : tr.phys;
    }
  }
  cycles_ += 2;
  switch (width) {
    case 1: space_.phys().write8(phys, static_cast<u8>(value)); break;
    case 2:
      space_.phys().write16(phys, static_cast<u16>(value), mem::Endian::kLittle);
      break;
    case 4: space_.phys().write32(phys, value, mem::Endian::kLittle); break;
    default: KFI_CHECK(false, "bad width");
  }
  note_data_access(addr, width, /*is_write=*/true);
  if (sink_ != nullptr) sink_->on_mem_write(addr, phys, width);
}

u32 CiscaCpu::read_reg(u8 reg, u8 width) const {
  trace_rr(width == 1 && reg >= 4 ? static_cast<trace::RegSlot>(reg - 4)
                                  : static_cast<trace::RegSlot>(reg));
  if (width == 1) {
    // IA-32 r8 numbering: 0-3 = low bytes, 4-7 = high bytes of eax..ebx.
    if (reg < 4) return regs_.gpr[reg] & 0xFF;
    return (regs_.gpr[reg - 4] >> 8) & 0xFF;
  }
  if (width == 2) return regs_.gpr[reg] & 0xFFFF;
  return regs_.gpr[reg];
}

void CiscaCpu::write_reg(u8 reg, u8 width, u32 value) {
  // Sub-register writes preserve the rest of the GPR, so their shadow
  // unions instead of overwriting (whole-register shadow granularity).
  const auto slot = width == 1 && reg >= 4 ? static_cast<trace::RegSlot>(reg - 4)
                                           : static_cast<trace::RegSlot>(reg);
  if (width == 4) {
    trace_rw(slot);
  } else {
    trace_rm(slot);
  }
  if (width == 1) {
    if (reg < 4) {
      regs_.gpr[reg] = (regs_.gpr[reg] & ~0xFFu) | (value & 0xFF);
    } else {
      regs_.gpr[reg - 4] =
          (regs_.gpr[reg - 4] & ~0xFF00u) | ((value & 0xFF) << 8);
    }
    return;
  }
  if (width == 2) {
    regs_.gpr[reg] = (regs_.gpr[reg] & ~0xFFFFu) | (value & 0xFFFF);
    return;
  }
  regs_.gpr[reg] = value;
}

u32 CiscaCpu::read_operand(const Operand& op, u8 width) {
  switch (op.kind) {
    case OperandKind::kReg: return read_reg(op.reg, width);
    case OperandKind::kMem: return read_mem(effective_addr(op.mem), width);
    case OperandKind::kImm: return static_cast<u32>(op.imm) & kWidthMask[width];
    case OperandKind::kNone: break;
  }
  KFI_CHECK(false, "read of empty operand");
  return 0;
}

void CiscaCpu::write_operand(const Operand& op, u8 width, u32 value) {
  switch (op.kind) {
    case OperandKind::kReg: write_reg(op.reg, width, value); return;
    case OperandKind::kMem: write_mem(effective_addr(op.mem), width, value); return;
    default: KFI_CHECK(false, "write to non-lvalue operand");
  }
}

void CiscaCpu::check_stack_extension(Addr new_esp) {
  // Paper Section 7: "stack overflow detection ... could be added by
  // extending the semantics of PUSH and POP instructions ... to enable
  // checking for a memory access beyond the currently allocated stack."
  if (!options_.stack_limit_check || stack_hi_ == 0) return;
  if (new_esp < stack_lo_ || new_esp > stack_hi_) {
    raise(Cause::kGeneralProtection, new_esp, true, /*aux=*/0x5057 /* 'PW' */);
  }
}

void CiscaCpu::push32(u32 value) {
  trace_rr(kEsp);  // address formation; the ESP decrement itself is
                   // self-derived and keeps ESP's own shadow
  const u32 new_esp = regs_.gpr[kEsp] - 4;
  check_stack_extension(new_esp);
  write_mem(new_esp, 4, value);
  regs_.gpr[kEsp] = new_esp;
}

u32 CiscaCpu::pop32() {
  trace_rr(kEsp);
  const u32 esp = regs_.gpr[kEsp];
  check_stack_extension(esp);
  const u32 value = read_mem(esp, 4);
  regs_.gpr[kEsp] = esp + 4;
  return value;
}

void CiscaCpu::set_flags_logic(u32 result, u8 width) {
  const u32 masked = result & kWidthMask[width];
  u32 f = regs_.eflags;
  f = set_bits32(f, kFlagCF, 1, 0);
  f = set_bits32(f, kFlagOF, 1, 0);
  f = set_bits32(f, kFlagZF, 1, masked == 0);
  f = set_bits32(f, kFlagSF, 1, (masked & kSignBit[width]) != 0);
  f = set_bits32(f, kFlagPF, 1, parity_even(masked));
  regs_.eflags = f;
  trace_rm(kSlotEflags);
}

void CiscaCpu::set_flags_add(u64 a, u64 b, u64 carry_in, u8 width) {
  const u64 mask = kWidthMask[width];
  const u64 sum = (a & mask) + (b & mask) + carry_in;
  const u32 masked = static_cast<u32>(sum & mask);
  const bool carry = sum > mask;
  const bool sa = (a & kSignBit[width]) != 0;
  const bool sb = (b & kSignBit[width]) != 0;
  const bool sr = (masked & kSignBit[width]) != 0;
  u32 f = regs_.eflags;
  f = set_bits32(f, kFlagCF, 1, carry);
  f = set_bits32(f, kFlagOF, 1, (sa == sb) && (sr != sa));
  f = set_bits32(f, kFlagZF, 1, masked == 0);
  f = set_bits32(f, kFlagSF, 1, sr);
  f = set_bits32(f, kFlagPF, 1, parity_even(masked));
  regs_.eflags = f;
  trace_rm(kSlotEflags);
}

void CiscaCpu::set_flags_sub(u64 a, u64 b, u64 borrow_in, u8 width) {
  const u64 mask = kWidthMask[width];
  const u64 diff = (a & mask) - (b & mask) - borrow_in;
  const u32 masked = static_cast<u32>(diff & mask);
  const bool borrow = (a & mask) < (b & mask) + borrow_in;
  const bool sa = (a & kSignBit[width]) != 0;
  const bool sb = (b & kSignBit[width]) != 0;
  const bool sr = (masked & kSignBit[width]) != 0;
  u32 f = regs_.eflags;
  f = set_bits32(f, kFlagCF, 1, borrow);
  f = set_bits32(f, kFlagOF, 1, (sa != sb) && (sr != sa));
  f = set_bits32(f, kFlagZF, 1, masked == 0);
  f = set_bits32(f, kFlagSF, 1, sr);
  f = set_bits32(f, kFlagPF, 1, parity_even(masked));
  regs_.eflags = f;
  trace_rm(kSlotEflags);
}

bool CiscaCpu::eval_cond(u8 cond) const {
  trace_rr(kSlotEflags);
  trace_branch();
  const bool cf = test_bit(regs_.eflags, kFlagCF);
  const bool zf = test_bit(regs_.eflags, kFlagZF);
  const bool sf = test_bit(regs_.eflags, kFlagSF);
  const bool of = test_bit(regs_.eflags, kFlagOF);
  const bool pf = test_bit(regs_.eflags, kFlagPF);
  switch (cond & 0x0E) {
    case kCondO: return (cond & 1) ? !of : of;
    case kCondB: return (cond & 1) ? !cf : cf;
    case kCondE: return (cond & 1) ? !zf : zf;
    case kCondBE: return (cond & 1) ? !(cf || zf) : (cf || zf);
    case kCondS: return (cond & 1) ? !sf : sf;
    case kCondP: return (cond & 1) ? !pf : pf;
    case kCondL: return (cond & 1) ? !(sf != of) : (sf != of);
    case kCondLE: return (cond & 1) ? !(zf || sf != of) : (zf || sf != of);
  }
  return false;
}

// Per-op execute handlers.  Each is the corresponding case body of the old
// execute() switch, verbatim: fall-through ops advance EIP at the end,
// branch ops assign EIP and charge their taken-branch cycles, raising ops
// throw before any EIP update.  Superblocks dispatch through these
// pointers directly, so the switch is resolved once per block at build
// time instead of once per instruction.
struct CiscaOps {
  static void add(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 a = c.read_operand(insn.dst, w);
    const u32 b = c.read_operand(insn.src, w);
    const u32 cin =
        (insn.op == Op::kAdc && test_bit(c.regs_.eflags, kFlagCF)) ? 1 : 0;
    c.set_flags_add(a, b, cin, w);
    c.write_operand(insn.dst, w, a + b + cin);
    c.regs_.eip += insn.length;
  }
  static void sub(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 a = c.read_operand(insn.dst, w);
    const u32 b = c.read_operand(insn.src, w);
    const u32 bin =
        (insn.op == Op::kSbb && test_bit(c.regs_.eflags, kFlagCF)) ? 1 : 0;
    c.set_flags_sub(a, b, bin, w);
    c.write_operand(insn.dst, w, a - b - bin);
    c.regs_.eip += insn.length;
  }
  static void cmp(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 a = c.read_operand(insn.dst, w);
    const u32 b = c.read_operand(insn.src, w);
    c.set_flags_sub(a, b, 0, w);
    c.regs_.eip += insn.length;
  }
  static void logic(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 a = c.read_operand(insn.dst, w);
    const u32 b = c.read_operand(insn.src, w);
    const u32 r = insn.op == Op::kAnd ? (a & b)
                  : insn.op == Op::kOr ? (a | b)
                                       : (a ^ b);
    c.set_flags_logic(r, w);
    c.write_operand(insn.dst, w, r);
    c.regs_.eip += insn.length;
  }
  static void test(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 a = c.read_operand(insn.dst, w);
    const u32 b = c.read_operand(insn.src, w);
    c.set_flags_logic(a & b, w);
    c.regs_.eip += insn.length;
  }
  static void mov(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 v = c.read_operand(insn.src, w);
    c.write_operand(insn.dst, w, v);
    c.regs_.eip += insn.length;
  }
  static void movzx(CiscaCpu& c, const Insn& insn) {
    const u32 v = c.read_operand(insn.src, insn.src_width);
    c.write_operand(insn.dst, 4, v);
    c.regs_.eip += insn.length;
  }
  static void movsx(CiscaCpu& c, const Insn& insn) {
    const u32 v = c.read_operand(insn.src, insn.src_width);
    c.write_operand(insn.dst, 4,
                    static_cast<u32>(sign_extend32(v, insn.src_width * 8)));
    c.regs_.eip += insn.length;
  }
  static void lea(CiscaCpu& c, const Insn& insn) {
    // lea computes the address without the segment-base contribution.
    u32 addr = static_cast<u32>(insn.src.mem.disp);
    if (insn.src.mem.base != MemOperand::kNoReg) {
      c.trace_rr(insn.src.mem.base);
      addr += c.regs_.gpr[insn.src.mem.base];
    }
    if (insn.src.mem.index != MemOperand::kNoReg) {
      c.trace_rr(insn.src.mem.index);
      addr += c.regs_.gpr[insn.src.mem.index] * insn.src.mem.scale;
    }
    c.write_reg(insn.dst.reg, 4, addr);
    c.regs_.eip += insn.length;
  }
  static void xchg(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 a = c.read_operand(insn.dst, w);
    const u32 b = c.read_operand(insn.src, w);
    c.write_operand(insn.dst, w, b);
    c.write_operand(insn.src, w, a);
    c.regs_.eip += insn.length;
  }
  static void inc(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 a = c.read_operand(insn.dst, w);
    const bool cf = test_bit(c.regs_.eflags, kFlagCF);
    c.set_flags_add(a, 1, 0, w);
    c.regs_.eflags =
        set_bits32(c.regs_.eflags, kFlagCF, 1, cf);  // inc keeps CF
    c.write_operand(insn.dst, w, a + 1);
    c.regs_.eip += insn.length;
  }
  static void dec(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 a = c.read_operand(insn.dst, w);
    const bool cf = test_bit(c.regs_.eflags, kFlagCF);
    c.set_flags_sub(a, 1, 0, w);
    c.regs_.eflags = set_bits32(c.regs_.eflags, kFlagCF, 1, cf);
    c.write_operand(insn.dst, w, a - 1);
    c.regs_.eip += insn.length;
  }
  static void push(CiscaCpu& c, const Insn& insn) {
    const u32 v = insn.dst.kind == OperandKind::kImm
                      ? static_cast<u32>(insn.dst.imm)
                      : c.read_operand(insn.dst, 4);
    c.push32(v);
    c.regs_.eip += insn.length;
  }
  static void pop(CiscaCpu& c, const Insn& insn) {
    const u32 v = c.pop32();
    c.write_operand(insn.dst, 4, v);
    c.regs_.eip += insn.length;
  }
  static void pushf(CiscaCpu& c, const Insn& insn) {
    c.trace_rr(kSlotEflags);
    c.push32(c.regs_.eflags);
    c.regs_.eip += insn.length;
  }
  static void popf(CiscaCpu& c, const Insn& insn) {
    c.regs_.eflags = (c.pop32() & ~0x2u) | 0x2u;
    c.trace_rw(kSlotEflags);
    c.regs_.eip += insn.length;
  }
  static void leave(CiscaCpu& c, const Insn& insn) {
    c.trace_rr(kEbp);
    c.trace_rw(kEsp);
    c.regs_.gpr[kEsp] = c.regs_.gpr[kEbp];
    c.regs_.gpr[kEbp] = c.pop32();
    c.trace_rw(kEbp);
    c.regs_.eip += insn.length;
  }
  static void jcc(CiscaCpu& c, const Insn& insn) {
    const Addr next = c.regs_.eip + insn.length;
    if (c.eval_cond(insn.cond)) {
      c.regs_.eip = next + insn.rel;
      c.cycles_ += 1;
      return;
    }
    c.regs_.eip = next;
  }
  static void jmp(CiscaCpu& c, const Insn& insn) {
    const Addr next = c.regs_.eip + insn.length;
    if (insn.src_width == 4) {  // indirect
      c.regs_.eip = c.read_operand(insn.dst, 4);
      // Only computed targets taint EIP; relative displacements advance
      // it from itself, keeping the PC shadow meaningful.
      c.trace_rw(kSlotEip);
    } else {
      c.regs_.eip = next + insn.rel;
    }
    c.cycles_ += 1;
  }
  static void call(CiscaCpu& c, const Insn& insn) {
    const Addr next = c.regs_.eip + insn.length;
    u32 target;
    if (insn.src_width == 4) {
      target = c.read_operand(insn.dst, 4);
    } else {
      target = next + insn.rel;
    }
    c.push32(next);
    c.regs_.eip = target;
    if (insn.src_width == 4) c.trace_rw(kSlotEip);
    c.cycles_ += 2;
  }
  static void ret(CiscaCpu& c, const Insn& insn) {
    const u32 ra = c.pop32();
    c.regs_.gpr[kEsp] += static_cast<u32>(insn.rel);
    c.regs_.eip = ra;
    c.trace_rw(kSlotEip);
    c.cycles_ += 2;
  }
  static void iret(CiscaCpu& c, const Insn& insn) {
    (void)insn;
    // Nested-task return: with EFLAGS.NT set the CPU attempts a task
    // backlink through the TSS; our kernel never uses hardware tasks, so
    // the linkage is invalid and the CPU raises #TS — precisely the
    // paper's observed consequence of an NT bit flip.
    c.trace_rr(kSlotEflags);
    if (test_bit(c.regs_.eflags, kFlagNT)) {
      c.raise(Cause::kInvalidTss, 0, false, c.regs_.tr);
    }
    const u32 ra = c.pop32();
    c.pop32();  // cs (ignored)
    c.regs_.eflags = (c.pop32() & ~0x2u) | 0x2u;
    c.trace_rw(kSlotEflags);
    c.regs_.eip = ra;
    c.trace_rw(kSlotEip);
    c.cycles_ += 3;
  }
  static void nop(CiscaCpu& c, const Insn& insn) {
    c.regs_.eip += insn.length;
  }
  static void hlt(CiscaCpu& c, const Insn& insn) {
    c.halted_pending_ = true;
    c.regs_.eip += insn.length;
  }
  [[noreturn]] static void ud2(CiscaCpu& c, const Insn& insn) {
    (void)insn;
    c.raise(Cause::kInvalidOpcode, 0, false, 0x0F0B);
  }
  [[noreturn]] static void int3(CiscaCpu& c, const Insn& insn) {
    (void)insn;
    c.raise(Cause::kBreakpointTrap);
  }
  static void int_(CiscaCpu& c, const Insn& insn) {
    c.regs_.eip += insn.length;  // trap handlers see the return address
    // The trap is the instruction's last act, so it is delivered, not
    // thrown: no C++ unwinding on the syscall path.
    switch (insn.int_vector) {
      case 0x80: c.deliver(Cause::kSyscall); break;
      case 0x82: c.deliver(Cause::kKernelPanic); break;
      case 0x83: c.deliver(Cause::kSyscallReturn); break;
      default:
        c.deliver(Cause::kGeneralProtection, 0, false, insn.int_vector);
    }
  }
  static void bound(CiscaCpu& c, const Insn& insn) {
    const u32 v = c.read_reg(insn.dst.reg, 4);
    const u32 base = c.effective_addr(insn.src.mem);
    const u32 lo = c.read_mem(base, 4);
    const u32 hi = c.read_mem(base + 4, 4);
    if (static_cast<i32>(v) < static_cast<i32>(lo) ||
        static_cast<i32>(v) > static_cast<i32>(hi)) {
      c.raise(Cause::kBoundsTrap, 0, false, v);
    }
    c.regs_.eip += insn.length;
  }
  static void rotate(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 bits = w * 8;
    u32 count = c.read_operand(insn.src, 1) & 31;
    u32 v = c.read_operand(insn.dst, w);
    count %= bits;
    if (count != 0) {
      if (insn.op == Op::kRol || insn.op == Op::kRcl) {
        v = (v << count) | (v >> (bits - count));
      } else {
        v = (v >> count) | (v << (bits - count));
      }
      v &= kWidthMask[w];
      c.regs_.eflags = set_bits32(c.regs_.eflags, kFlagCF, 1, v & 1);
      c.trace_rm(kSlotEflags);
    }
    c.write_operand(insn.dst, w, v);
    c.regs_.eip += insn.length;
  }
  static void shift(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 bits = w * 8;
    const u32 count = c.read_operand(insn.src, 1) & 31;
    u32 v = c.read_operand(insn.dst, w);
    if (count != 0) {
      u32 r;
      bool cf;
      if (insn.op == Op::kShl) {
        cf = count <= bits && test_bit(v, bits - count);
        r = count >= bits ? 0 : (v << count);
      } else if (insn.op == Op::kShr) {
        cf = count <= bits && test_bit(v, count - 1);
        r = count >= bits ? 0 : (v >> count);
      } else {
        const i32 sv = static_cast<i32>(sign_extend32(v, bits));
        cf = test_bit(static_cast<u32>(sv >> (count - 1)), 0);
        r = static_cast<u32>(sv >> (count >= bits ? bits - 1 : count));
      }
      r &= kWidthMask[w];
      c.set_flags_logic(r, w);
      c.regs_.eflags = set_bits32(c.regs_.eflags, kFlagCF, 1, cf);
      c.write_operand(insn.dst, w, r);
    }
    c.regs_.eip += insn.length;
  }
  static void not_(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 v = c.read_operand(insn.dst, w);
    c.write_operand(insn.dst, w, ~v);
    c.regs_.eip += insn.length;
  }
  static void neg(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 v = c.read_operand(insn.dst, w);
    c.set_flags_sub(0, v, 0, w);
    c.write_operand(insn.dst, w, 0u - v);
    c.regs_.eip += insn.length;
  }
  static void mul(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u64 a = c.read_reg(kEax, w);
    const u64 b = c.read_operand(insn.dst, w);
    const u64 r = a * b;
    c.cycles_ += 6;
    if (w == 1) {
      c.write_reg(kEax, 2, static_cast<u32>(r));
    } else {
      c.write_reg(kEax, w, static_cast<u32>(r & kWidthMask[w]));
      c.write_reg(kEdx, w, static_cast<u32>((r >> (w * 8)) & kWidthMask[w]));
    }
    const bool high = (r >> (w * 8)) != 0;
    c.regs_.eflags = set_bits32(c.regs_.eflags, kFlagCF, 1, high);
    c.regs_.eflags = set_bits32(c.regs_.eflags, kFlagOF, 1, high);
    c.trace_rm(kSlotEflags);
    c.regs_.eip += insn.length;
  }
  static void imul(CiscaCpu& c, const Insn& insn) {
    if (insn.src_width == 4 && insn.dst.kind == OperandKind::kReg) {
      // 3-operand form: dst = src * imm.
      const i64 r =
          static_cast<i64>(static_cast<i32>(c.read_operand(insn.src, 4))) *
          insn.rel;
      c.write_reg(insn.dst.reg, 4, static_cast<u32>(r));
      c.cycles_ += 6;
      c.regs_.eip += insn.length;
      return;
    }
    const i64 a = static_cast<i32>(c.read_operand(insn.dst, 4));
    const i64 b = static_cast<i32>(c.read_operand(insn.src, 4));
    c.write_reg(insn.dst.reg, 4, static_cast<u32>(a * b));
    c.cycles_ += 6;
    c.regs_.eip += insn.length;
  }
  static void div(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    const u32 divisor = c.read_operand(insn.dst, w);
    c.cycles_ += 20;
    if (divisor == 0) c.raise(Cause::kDivideError);
    if (w == 4) {
      c.trace_rr(kEdx);
      c.trace_rr(kEax);
      const u64 dividend =
          (static_cast<u64>(c.regs_.gpr[kEdx]) << 32) | c.regs_.gpr[kEax];
      if (insn.op == Op::kDiv) {
        const u64 q = dividend / divisor;
        if (q > 0xFFFFFFFFULL) c.raise(Cause::kDivideError);
        c.regs_.gpr[kEax] = static_cast<u32>(q);
        c.regs_.gpr[kEdx] = static_cast<u32>(dividend % divisor);
      } else {
        const i64 sdividend = static_cast<i64>(dividend);
        const i64 sdiv = static_cast<i32>(divisor);
        const i64 q = sdividend / sdiv;
        if (q > 0x7FFFFFFFLL || q < -0x80000000LL) c.raise(Cause::kDivideError);
        c.regs_.gpr[kEax] = static_cast<u32>(q);
        c.regs_.gpr[kEdx] = static_cast<u32>(sdividend % sdiv);
      }
      c.trace_rw(kEax);
      c.trace_rw(kEdx);
    } else {
      const u32 dividend = c.read_reg(kEax, 2) | (c.read_reg(kEdx, 2) << 16);
      const u32 q = dividend / divisor;
      if (q > kWidthMask[w]) c.raise(Cause::kDivideError);
      c.write_reg(kEax, w, q);
      c.write_reg(kEdx, w, dividend % divisor);
    }
    c.regs_.eip += insn.length;
  }
  static void cwde(CiscaCpu& c, const Insn& insn) {
    c.trace_rr(kEax);
    c.trace_rw(kEax);
    c.regs_.gpr[kEax] =
        static_cast<u32>(sign_extend32(c.regs_.gpr[kEax] & 0xFFFF, 16));
    c.regs_.eip += insn.length;
  }
  static void cdq(CiscaCpu& c, const Insn& insn) {
    c.trace_rr(kEax);
    c.trace_rw(kEdx);
    c.regs_.gpr[kEdx] = (c.regs_.gpr[kEax] & 0x80000000u) ? 0xFFFFFFFFu : 0;
    c.regs_.eip += insn.length;
  }
  static void jecxz(CiscaCpu& c, const Insn& insn) {
    const Addr next = c.regs_.eip + insn.length;
    c.trace_rr(kEcx);
    c.trace_branch();
    if (c.regs_.gpr[kEcx] == 0) {
      c.regs_.eip = next + insn.rel;
      c.cycles_ += 1;
      return;
    }
    c.regs_.eip = next;
  }
  static void loop(CiscaCpu& c, const Insn& insn) {
    const Addr next = c.regs_.eip + insn.length;
    c.trace_rr(kEcx);
    c.regs_.gpr[kEcx] -= 1;
    c.trace_rw(kEcx);
    bool take = c.regs_.gpr[kEcx] != 0;
    if (insn.src_width == 1) {  // loope / loopne
      const bool zf = test_bit(c.regs_.eflags, kFlagZF);
      c.trace_rr(kSlotEflags);
      take = take && (insn.cond == 1 ? zf : !zf);
    }
    c.trace_branch();
    if (take) {
      c.regs_.eip = next + insn.rel;
      c.cycles_ += 1;
      return;
    }
    c.regs_.eip = next;
  }
  static void mov_from_cr(CiscaCpu& c, const Insn& insn) {
    u32 v = 0;
    switch (insn.src.reg) {
      case 0: v = c.regs_.cr0; c.trace_rr(kSlotCr0); break;
      case 2: v = c.regs_.cr2; c.trace_rr(kSlotCr2); break;
      case 3: v = c.regs_.cr3; c.trace_rr(kSlotCr3); break;
      case 4: v = c.regs_.cr4; c.trace_rr(kSlotCr4); break;
      default: c.raise(Cause::kInvalidOpcode);
    }
    c.write_reg(insn.dst.reg, 4, v);
    c.regs_.eip += insn.length;
  }
  static void mov_to_cr(CiscaCpu& c, const Insn& insn) {
    const u32 v = c.read_operand(insn.src, 4);
    switch (insn.dst.reg) {
      case 0: c.regs_.cr0 = v; c.trace_rw(kSlotCr0); break;
      case 2: c.regs_.cr2 = v; c.trace_rw(kSlotCr2); break;
      case 3: c.regs_.cr3 = v; c.trace_rw(kSlotCr3); break;
      case 4: c.regs_.cr4 = v; c.trace_rw(kSlotCr4); break;
      default: c.raise(Cause::kInvalidOpcode);
    }
    c.regs_.eip += insn.length;
  }
  static void mov_from_seg(CiscaCpu& c, const Insn& insn) {
    c.trace_rr(insn.src.reg == 4 ? kSlotFs : kSlotGs);
    const u32 v = insn.src.reg == 4 ? c.regs_.fs : c.regs_.gs;
    c.write_operand(insn.dst, 2, v);
    c.regs_.eip += insn.length;
  }
  static void mov_to_seg(CiscaCpu& c, const Insn& insn) {
    const u32 v = c.read_operand(insn.src, 2);
    if (insn.dst.reg == 4) {
      c.regs_.fs = v;
      c.trace_rw(kSlotFs);
    } else {
      c.regs_.gs = v;
      c.trace_rw(kSlotGs);
    }
    c.regs_.eip += insn.length;
  }
  static void string(CiscaCpu& c, const Insn& insn) {
    // String ops honor DF and the REP prefixes; REP executes in bounded
    // slices per step (like the interruptible hardware ops) by leaving
    // EIP unchanged until ECX reaches zero (or the REPE/REPNE condition
    // stops a cmps/scas).
    const u8 w = insn.width;
    const u32 delta = test_bit(c.regs_.eflags, kFlagDF)
                          ? static_cast<u32>(-static_cast<i32>(w))
                          : w;
    const bool repeated = insn.rep || insn.repne;
    u32 iterations = repeated ? 16 : 1;
    bool stop = !repeated;
    while (iterations-- > 0) {
      if (repeated) {
        c.trace_rr(kEcx);
        c.trace_branch();
        if (c.regs_.gpr[kEcx] == 0) {
          stop = true;
          break;
        }
      }
      switch (insn.op) {
        case Op::kMovs: {
          c.trace_rr(kEsi);
          c.trace_rr(kEdi);
          const u32 v = c.read_mem(c.regs_.gpr[kEsi], w);
          c.write_mem(c.regs_.gpr[kEdi], w, v);
          c.regs_.gpr[kEsi] += delta;
          c.regs_.gpr[kEdi] += delta;
          break;
        }
        case Op::kStos:
          c.trace_rr(kEdi);
          c.write_mem(c.regs_.gpr[kEdi], w, c.read_reg(kEax, w));
          c.regs_.gpr[kEdi] += delta;
          break;
        case Op::kLods:
          c.trace_rr(kEsi);
          c.write_reg(kEax, w, c.read_mem(c.regs_.gpr[kEsi], w));
          c.regs_.gpr[kEsi] += delta;
          break;
        case Op::kScas: {
          c.trace_rr(kEdi);
          const u32 m = c.read_mem(c.regs_.gpr[kEdi], w);
          c.set_flags_sub(c.read_reg(kEax, w), m, 0, w);
          c.regs_.gpr[kEdi] += delta;
          break;
        }
        case Op::kCmps: {
          c.trace_rr(kEsi);
          c.trace_rr(kEdi);
          const u32 a = c.read_mem(c.regs_.gpr[kEsi], w);
          const u32 b = c.read_mem(c.regs_.gpr[kEdi], w);
          c.set_flags_sub(a, b, 0, w);
          c.regs_.gpr[kEsi] += delta;
          c.regs_.gpr[kEdi] += delta;
          break;
        }
        default:
          break;
      }
      if (repeated) {
        c.regs_.gpr[kEcx] -= 1;
        if (insn.op == Op::kScas || insn.op == Op::kCmps) {
          const bool zf = test_bit(c.regs_.eflags, kFlagZF);
          if ((insn.rep && !zf) || (insn.repne && zf)) {
            stop = true;
            break;
          }
        }
        if (c.regs_.gpr[kEcx] == 0) stop = true;
      }
    }
    if (!stop) return;  // resume the REP at the same EIP next step
    c.regs_.eip += insn.length;
  }
  static void pusha(CiscaCpu& c, const Insn& insn) {
    const u32 saved_esp = c.regs_.gpr[kEsp];
    for (const u8 r : {kEax, kEcx, kEdx, kEbx}) {
      c.trace_rr(r);
      c.push32(c.regs_.gpr[r]);
    }
    c.push32(saved_esp);
    for (const u8 r : {kEbp, kEsi, kEdi}) {
      c.trace_rr(r);
      c.push32(c.regs_.gpr[r]);
    }
    c.regs_.eip += insn.length;
  }
  static void popa(CiscaCpu& c, const Insn& insn) {
    for (const u8 r : {kEdi, kEsi, kEbp}) {
      c.regs_.gpr[r] = c.pop32();
      c.trace_rw(r);
    }
    c.pop32();  // esp image discarded
    for (const u8 r : {kEbx, kEdx, kEcx, kEax}) {
      c.regs_.gpr[r] = c.pop32();
      c.trace_rw(r);
    }
    c.regs_.eip += insn.length;
  }
  static void salc(CiscaCpu& c, const Insn& insn) {
    c.trace_rr(kSlotEflags);
    c.write_reg(kEax, 1, test_bit(c.regs_.eflags, kFlagCF) ? 0xFF : 0x00);
    c.regs_.eip += insn.length;
  }
  static void xlat(CiscaCpu& c, const Insn& insn) {
    c.trace_rr(kEbx);
    c.write_reg(kEax, 1,
                c.read_mem(c.regs_.gpr[kEbx] + c.read_reg(kEax, 1), 1));
    c.regs_.eip += insn.length;
  }
  static void clc(CiscaCpu& c, const Insn& insn) {
    c.regs_.eflags = set_bits32(c.regs_.eflags, kFlagCF, 1, 0);
    c.regs_.eip += insn.length;
  }
  static void stc(CiscaCpu& c, const Insn& insn) {
    c.regs_.eflags = set_bits32(c.regs_.eflags, kFlagCF, 1, 1);
    c.regs_.eip += insn.length;
  }
  static void cmc(CiscaCpu& c, const Insn& insn) {
    c.regs_.eflags ^= 1u << kFlagCF;
    c.regs_.eip += insn.length;
  }
  static void cld(CiscaCpu& c, const Insn& insn) {
    c.regs_.eflags = set_bits32(c.regs_.eflags, kFlagDF, 1, 0);
    c.regs_.eip += insn.length;
  }
  static void std(CiscaCpu& c, const Insn& insn) {
    c.regs_.eflags = set_bits32(c.regs_.eflags, kFlagDF, 1, 1);
    c.regs_.eip += insn.length;
  }
  static void cli(CiscaCpu& c, const Insn& insn) {
    c.regs_.eflags = set_bits32(c.regs_.eflags, kFlagIF, 1, 0);
    c.regs_.eip += insn.length;
  }
  static void sti(CiscaCpu& c, const Insn& insn) {
    c.regs_.eflags = set_bits32(c.regs_.eflags, kFlagIF, 1, 1);
    c.regs_.eip += insn.length;
  }
  static void fpu(CiscaCpu& c, const Insn& insn) {
    // x87 with a memory operand touches memory (and can fault); the FP
    // register file itself is not modeled.
    if (insn.dst.kind == OperandKind::kMem) {
      c.read_mem(c.effective_addr(insn.dst.mem), 4);
    }
    c.cycles_ += 3;
    c.regs_.eip += insn.length;
  }
  static void enter(CiscaCpu& c, const Insn& insn) {
    c.trace_rr(kEbp);
    c.push32(c.regs_.gpr[kEbp]);
    c.trace_rr(kEsp);
    c.regs_.gpr[kEbp] = c.regs_.gpr[kEsp];
    c.trace_rw(kEbp);
    c.regs_.gpr[kEsp] -= static_cast<u32>(insn.rel);
    c.regs_.eip += insn.length;
  }
  static void retf(CiscaCpu& c, const Insn& insn) {
    const u32 ra = c.pop32();
    c.pop32();  // cs selector (garbage here)
    c.regs_.gpr[kEsp] += static_cast<u32>(insn.rel);
    c.regs_.eip = ra;
    c.trace_rw(kSlotEip);
    c.cycles_ += 3;
  }
  static void into(CiscaCpu& c, const Insn& insn) {
    c.trace_rr(kSlotEflags);
    if (test_bit(c.regs_.eflags, kFlagOF)) c.raise(Cause::kBoundsTrap);
    c.regs_.eip += insn.length;
  }
  [[noreturn]] static void far(CiscaCpu& c, const Insn& insn) {
    (void)insn;
    // Far transfers load a code selector; anything reached through a
    // corrupted stream carries a garbage selector: #GP.
    c.raise(Cause::kGeneralProtection, 0, false, 0xFA12);
  }
  static void aam(CiscaCpu& c, const Insn& insn) {
    const u32 divisor = static_cast<u32>(insn.src.imm) & 0xFF;
    if (divisor == 0) c.raise(Cause::kDivideError);
    const u32 al = c.read_reg(kEax, 1);
    c.write_reg(kEax, 2, ((al / divisor) << 8) | (al % divisor));
    c.regs_.eip += insn.length;
  }
  static void aad(CiscaCpu& c, const Insn& insn) {
    const u32 mult = static_cast<u32>(insn.src.imm) & 0xFF;
    const u32 ax = c.read_reg(kEax, 2);
    c.write_reg(kEax, 2, ((ax >> 8) * mult + (ax & 0xFF)) & 0xFF);
    c.regs_.eip += insn.length;
  }
  static void arpl(CiscaCpu& c, const Insn& insn) {
    c.cycles_ += 1;  // flat segments: no modeled effect
    c.regs_.eip += insn.length;
  }
  static void insouts(CiscaCpu& c, const Insn& insn) {
    const u8 w = insn.width;
    if (insn.src_width == 1) {
      c.trace_rr(kEsi);
      c.read_mem(c.regs_.gpr[kEsi], w);  // outs reads [esi]
      c.regs_.gpr[kEsi] += w;
    } else {
      c.trace_rr(kEdi);
      c.write_mem(c.regs_.gpr[kEdi], w, 0);  // ins writes port data to [edi]
      c.regs_.gpr[kEdi] += w;
    }
    c.cycles_ += 10;
    c.regs_.eip += insn.length;
  }
  static void inout(CiscaCpu& c, const Insn& insn) {
    c.cycles_ += 20;  // port I/O: no devices behind it here
    c.regs_.eip += insn.length;
  }
  [[noreturn]] static void invalid(CiscaCpu& c, const Insn& insn) {
    (void)insn;
    c.raise(Cause::kInvalidOpcode);
  }
};

namespace {

using OpFn = void (*)(CiscaCpu&, const Insn&);

const std::array<OpFn, kNumOps>& op_table() {
  static const std::array<OpFn, kNumOps> table = [] {
    std::array<OpFn, kNumOps> t{};
    auto set = [&t](Op op, OpFn fn) { t[static_cast<size_t>(op)] = fn; };
    set(Op::kInvalid, &CiscaOps::invalid);
    set(Op::kAdd, &CiscaOps::add);
    set(Op::kAdc, &CiscaOps::add);
    set(Op::kSub, &CiscaOps::sub);
    set(Op::kSbb, &CiscaOps::sub);
    set(Op::kCmp, &CiscaOps::cmp);
    set(Op::kAnd, &CiscaOps::logic);
    set(Op::kOr, &CiscaOps::logic);
    set(Op::kXor, &CiscaOps::logic);
    set(Op::kTest, &CiscaOps::test);
    set(Op::kMov, &CiscaOps::mov);
    set(Op::kMovzx, &CiscaOps::movzx);
    set(Op::kMovsx, &CiscaOps::movsx);
    set(Op::kLea, &CiscaOps::lea);
    set(Op::kXchg, &CiscaOps::xchg);
    set(Op::kInc, &CiscaOps::inc);
    set(Op::kDec, &CiscaOps::dec);
    set(Op::kPush, &CiscaOps::push);
    set(Op::kPop, &CiscaOps::pop);
    set(Op::kPushf, &CiscaOps::pushf);
    set(Op::kPopf, &CiscaOps::popf);
    set(Op::kLeave, &CiscaOps::leave);
    set(Op::kJcc, &CiscaOps::jcc);
    set(Op::kJmp, &CiscaOps::jmp);
    set(Op::kCall, &CiscaOps::call);
    set(Op::kRet, &CiscaOps::ret);
    set(Op::kIret, &CiscaOps::iret);
    set(Op::kNop, &CiscaOps::nop);
    set(Op::kHlt, &CiscaOps::hlt);
    set(Op::kUd2, &CiscaOps::ud2);
    set(Op::kInt, &CiscaOps::int_);
    set(Op::kInt3, &CiscaOps::int3);
    set(Op::kBound, &CiscaOps::bound);
    set(Op::kRol, &CiscaOps::rotate);
    set(Op::kRor, &CiscaOps::rotate);
    set(Op::kRcl, &CiscaOps::rotate);
    set(Op::kRcr, &CiscaOps::rotate);
    set(Op::kShl, &CiscaOps::shift);
    set(Op::kShr, &CiscaOps::shift);
    set(Op::kSar, &CiscaOps::shift);
    set(Op::kNot, &CiscaOps::not_);
    set(Op::kNeg, &CiscaOps::neg);
    set(Op::kMul, &CiscaOps::mul);
    set(Op::kImul, &CiscaOps::imul);
    set(Op::kDiv, &CiscaOps::div);
    set(Op::kIdiv, &CiscaOps::div);
    set(Op::kCwde, &CiscaOps::cwde);
    set(Op::kCdq, &CiscaOps::cdq);
    set(Op::kJecxz, &CiscaOps::jecxz);
    set(Op::kLoop, &CiscaOps::loop);
    set(Op::kMovFromCr, &CiscaOps::mov_from_cr);
    set(Op::kMovToCr, &CiscaOps::mov_to_cr);
    set(Op::kMovFromSeg, &CiscaOps::mov_from_seg);
    set(Op::kMovToSeg, &CiscaOps::mov_to_seg);
    set(Op::kMovs, &CiscaOps::string);
    set(Op::kCmps, &CiscaOps::string);
    set(Op::kStos, &CiscaOps::string);
    set(Op::kLods, &CiscaOps::string);
    set(Op::kScas, &CiscaOps::string);
    set(Op::kPusha, &CiscaOps::pusha);
    set(Op::kPopa, &CiscaOps::popa);
    set(Op::kSalc, &CiscaOps::salc);
    set(Op::kXlat, &CiscaOps::xlat);
    set(Op::kClc, &CiscaOps::clc);
    set(Op::kStc, &CiscaOps::stc);
    set(Op::kCmc, &CiscaOps::cmc);
    set(Op::kCld, &CiscaOps::cld);
    set(Op::kStd, &CiscaOps::std);
    set(Op::kCli, &CiscaOps::cli);
    set(Op::kSti, &CiscaOps::sti);
    set(Op::kFpu, &CiscaOps::fpu);
    set(Op::kEnter, &CiscaOps::enter);
    set(Op::kRetf, &CiscaOps::retf);
    set(Op::kInto, &CiscaOps::into);
    set(Op::kJmpFar, &CiscaOps::far);
    set(Op::kCallFar, &CiscaOps::far);
    set(Op::kAam, &CiscaOps::aam);
    set(Op::kAad, &CiscaOps::aad);
    set(Op::kArpl, &CiscaOps::arpl);
    set(Op::kInsOuts, &CiscaOps::insouts);
    set(Op::kInOut, &CiscaOps::inout);
    set(Op::kFwait, &CiscaOps::nop);
    for (const OpFn fn : t) {
      KFI_CHECK(fn != nullptr, "cisca op handler table incomplete");
    }
    return t;
  }();
  return table;
}

}  // namespace

bool CiscaCpu::block_terminator(const Insn& insn) {
  switch (insn.op) {
    // Control transfers (and REP string slices, which may repeat at the
    // same EIP) end the straight-line run.
    case Op::kJcc: case Op::kJmp: case Op::kCall: case Op::kRet:
    case Op::kIret: case Op::kRetf: case Op::kJmpFar: case Op::kCallFar:
    case Op::kJecxz: case Op::kLoop:
    case Op::kMovs: case Op::kCmps: case Op::kStos: case Op::kLods:
    case Op::kScas:
    // Syscall/privilege transitions and halts hand control to the kernel
    // glue between steps.
    case Op::kInt: case Op::kInt3: case Op::kUd2: case Op::kHlt:
    // Interrupt-flag and control-register changes alter what the machine
    // loop (timer delivery) and the hoisted per-block CR0 check may
    // observe; they must take effect at a block boundary.
    case Op::kSti: case Op::kCli: case Op::kPopf: case Op::kMovToCr:
      return true;
    default:
      return false;
  }
}

bool CiscaCpu::block_entry(u32* phys0) const {
  // Loss of protected mode or paging single-steps, so step() raises the
  // #GP.  A one-byte fetch never crosses a page, so the fast path fails
  // only when the pc is unfetchable; step() then raises.
  return test_bit(regs_.cr0, kCr0PE) && test_bit(regs_.cr0, kCr0PG) &&
         space_.try_translate(regs_.eip, 1, mem::Access::kExecute, phys0);
}

void CiscaCpu::build_block(std::vector<BlockInsn>& insns, Addr vpc,
                           u32 phys0) const {
  const mem::PhysicalMemory& pm = space_.phys();
  Addr pc = vpc;
  u32 phys = phys0;
  while (insns.size() < kMaxBlockInsns) {
    // Conservative page rule: every member instruction's full decode
    // window must fit in the block's page, so the block depends on exactly
    // one page version and can never hit a mid-instruction fetch fault.
    // Instructions starting in the last (kMaxInsnBytes - 1) bytes of a
    // page single-step instead.
    if (mem::kPageSize - (phys & mem::kPageMask) < kMaxInsnBytes) break;
    FetchWindow window;
    window.pc = pc;
    window.phys = phys;
    pm.read_bytes(phys, window.bytes, kMaxInsnBytes);
    window.valid = kMaxInsnBytes;
    const DecodeResult dec = decode(window);
    // Invalid encodings single-step: step() raises the #UD with its aux
    // byte.
    if (dec.fetch_fault || dec.insn.op == Op::kInvalid) break;
    insns.push_back(
        {dec.insn, op_table()[static_cast<size_t>(dec.insn.op)], phys});
    pc += dec.insn.length;
    phys += dec.insn.length;
    if (block_terminator(dec.insn)) break;
  }
}

CiscaCpu::BlockInsn CiscaCpu::fetch_decode() {
  // Loss of protected mode or paging (e.g. a CR0 bit flip) is immediately
  // fatal in a protected-mode kernel: the very next fetch #GPs.
  if (!test_bit(regs_.cr0, kCr0PE) || !test_bit(regs_.cr0, kCr0PG)) {
    raise(Cause::kGeneralProtection, 0, false, regs_.cr0);
  }
  // The uncached reference: fetch and decode the current bytes, so a
  // corrupted or rewritten instruction takes effect at its next fetch.
  const FetchWindow window = fetch_window(regs_.eip);
  const DecodeResult dec = decode(window);
  if (dec.fetch_fault) {
    raise(Cause::kPageFault, dec.fault_addr, true);
  }
  ++decode_stats_.misses;
  if (dec.insn.op == Op::kInvalid) {
    raise(Cause::kInvalidOpcode, 0, false, window.bytes[0]);
  }
  if (sink_ != nullptr) {
    // Variable-length fetch: split the byte span across the (up to two)
    // physical pages so injected code bytes are seen wherever they live.
    const u32 len = dec.insn.length;
    const u32 in_page = mem::kPageSize - (window.phys & (mem::kPageSize - 1));
    const u32 len1 = std::min(len, in_page);
    const u32 phys2 = (len1 < len && window.phys_page2 != kNoPage)
                          ? (window.phys_page2 << mem::kPageShift)
                          : 0;
    sink_->on_insn_fetch(kSlotEip, regs_.eip, window.phys, len1, phys2,
                         phys2 != 0 ? len - len1 : 0);
  }
  return {dec.insn, op_table()[static_cast<size_t>(dec.insn.op)], window.phys};
}

isa::CpuSnapshot CiscaCpu::snapshot() const {
  isa::CpuSnapshot snap;
  snap.cycles = cycles_;
  const RegFile& r = regs_;
  snap.words = {r.gpr[0], r.gpr[1], r.gpr[2], r.gpr[3], r.gpr[4], r.gpr[5],
                r.gpr[6], r.gpr[7], r.eip,    r.eflags, r.cr0,    r.cr2,
                r.cr3,    r.cr4,    r.dr[0],  r.dr[1],  r.dr[2],  r.dr[3],
                r.dr6,    r.dr7,    r.fs,     r.gs,     r.gdtr_base,
                r.gdtr_limit, r.idtr_base, r.idtr_limit, r.ldtr, r.tr};
  return snap;
}

void CiscaCpu::restore(const isa::CpuSnapshot& snap) {
  KFI_CHECK(snap.words.size() == 28, "cisca snapshot size mismatch");
  RegFile& r = regs_;
  size_t i = 0;
  for (int g = 0; g < 8; ++g) r.gpr[g] = snap.words[i++];
  r.eip = snap.words[i++];
  r.eflags = snap.words[i++];
  r.cr0 = snap.words[i++];
  r.cr2 = snap.words[i++];
  r.cr3 = snap.words[i++];
  r.cr4 = snap.words[i++];
  for (int d = 0; d < 4; ++d) r.dr[d] = snap.words[i++];
  r.dr6 = snap.words[i++];
  r.dr7 = snap.words[i++];
  r.fs = snap.words[i++];
  r.gs = snap.words[i++];
  r.gdtr_base = snap.words[i++];
  r.gdtr_limit = snap.words[i++];
  r.idtr_base = snap.words[i++];
  r.idtr_limit = snap.words[i++];
  r.ldtr = snap.words[i++];
  r.tr = snap.words[i++];
  cycles_ = snap.cycles;
  debug_.clear_all();
  halted_pending_ = false;
}

}  // namespace kfi::cisca

template class kfi::isa::SuperblockEngine<kfi::cisca::CiscaCpu,
                                          kfi::cisca::Insn>;
