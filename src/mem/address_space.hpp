// Kernel address-space construction.
//
// Mirrors the Linux 2.4 layout the paper injected into: the kernel lives
// high (base 0xC0000000), with a read-only-executable text section, a
// writable data section (initialized data + BSS), one fixed-size kernel
// stack per process with an unmapped guard page below it, and the page at
// virtual address 0 permanently unmapped so that NULL-pointer dereferences
// fault (the single largest crash category in the study).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mem/mmu.hpp"
#include "mem/phys_mem.hpp"

namespace kfi::mem {

/// The Linux-like kernel virtual base used by both simulated machines.
constexpr Addr kKernelBase = 0xC0000000u;

struct Region {
  std::string name;
  Addr base = 0;
  u32 size = 0;  // bytes, page multiple
  PagePerms perms;

  bool contains(Addr a) const { return a >= base && a - base < size; }
};

/// Owns the physical memory, the MMU, and the region table for one
/// simulated machine.
class AddressSpace {
 public:
  AddressSpace(u32 phys_bytes, Endian endian);

  /// Allocate physical frames and map `size` bytes (rounded up to pages) at
  /// virtual `base` with `perms`.  Returns the region record.
  const Region& map_region(const std::string& name, Addr base, u32 size,
                           PagePerms perms);

  /// Record an intentionally unmapped region (guard page, NULL page) so
  /// diagnostics can name it.
  const Region& note_unmapped(const std::string& name, Addr base, u32 size);

  /// Virtual-address accessors; callers must have translated successfully.
  u8 vread8(Addr va) const;
  void vwrite8(Addr va, u8 value);
  u16 vread16(Addr va) const;
  void vwrite16(Addr va, u16 value);
  u32 vread32(Addr va) const;
  void vwrite32(Addr va, u32 value);
  void vwrite_bytes(Addr va, const u8* data, u32 len);
  void vread_bytes(Addr va, u8* out, u32 len) const;

  /// Flip one bit of the byte at virtual address `va` (bit 0..7).
  void vflip_bit(Addr va, u32 bit);

  /// Translation including permission checks, for CPU models.
  TranslateResult translate(Addr va, u32 len, Access access) const {
    return mmu_.translate(va, len, access);
  }

  /// The in-page fast path (see Mmu::try_translate): CPU models call it
  /// first and fall back to `translate` only when it returns false.
  bool try_translate(Addr va, u32 len, Access access, u32* phys) const {
    return mmu_.try_translate(va, len, access, phys);
  }

  /// Which named region (mapped or noted-unmapped) contains va, if any.
  const Region* region_of(Addr va) const;
  const Region* region_named(const std::string& name) const;
  const std::vector<Region>& regions() const { return regions_; }

  PhysicalMemory& phys() { return phys_; }
  const PhysicalMemory& phys() const { return phys_; }
  Mmu& mmu() { return mmu_; }
  const Mmu& mmu() const { return mmu_; }
  Endian endian() const { return endian_; }

 private:
  u32 must_translate(Addr va, u32 len) const;

  PhysicalMemory phys_;
  Mmu mmu_;
  Endian endian_;
  std::vector<Region> regions_;
  u32 next_frame_ = 1;  // frame 0 reserved so phys 0 is never handed out
};

}  // namespace kfi::mem
