// Variable-length instruction decoder for the cisca (P4-like) processor.
//
// The decoder consumes a prefetched byte window.  If it runs off the end of
// the window (which the CPU sizes to stop at unfetchable memory), the
// result is a fetch fault at the exact byte that could not be read — this
// is how executing past a page boundary into unmapped memory raises a page
// fault mid-instruction, one of the crash paths for re-aligned instruction
// streams.
//
// Design note on opcode density: like real IA-32, the map is intentionally
// dense — the overwhelming majority of byte values begin *some* valid
// instruction.  This is a load-bearing property: it is why a bit flip in
// kernel text on the P4 usually yields a different-but-valid instruction
// sequence (poor diagnosability, invalid memory access crashes) instead of
// an illegal-instruction exception, in contrast to the sparse fixed-width
// riscf map (Sections 5.3 and 5.5 of the paper).
#pragma once

#include "cisca/insn.hpp"
#include "common/types.hpp"

namespace kfi::cisca {

/// Maximum bytes one instruction may occupy:
/// prefix + opcode(2) + modrm + sib + disp32 + imm32 = 1+2+1+1+4+4 = 13.
constexpr u32 kMaxInsnBytes = 13;

/// Sentinel for "no physical page" in FetchWindow and the superblock cache.
constexpr u32 kNoPage = 0xFFFFFFFFu;

struct FetchWindow {
  u8 bytes[kMaxInsnBytes] = {};
  u8 valid = 0;  // number of readable bytes starting at pc
  Addr pc = 0;
  /// Physical address of bytes[0] (kNoPage if pc is unfetchable) and the
  /// second physical page index when the window straddles a page boundary.
  /// Pages are not physically contiguous, so both are recorded (the trace
  /// hook splits a straddling fetch across them).
  u32 phys = kNoPage;
  u32 phys_page2 = kNoPage;
};

struct DecodeResult {
  Insn insn{};
  bool fetch_fault = false;  // ran past `valid` bytes
  Addr fault_addr = 0;       // first unfetchable byte when fetch_fault
};

/// Decode one instruction.  Never throws; undecodable encodings yield
/// Op::kInvalid with a length so callers can report #UD at the right pc.
DecodeResult decode(const FetchWindow& window);

}  // namespace kfi::cisca
