// Page-granular MMU shared by both simulated processors.
//
// Translation failures do not throw: they return a MemFault that the CPU
// models convert into their architectural exceptions — a page fault on the
// P4-like machine (classified by the Linux-like kernel as "NULL pointer"
// vs. "bad paging"), a DSI / "kernel access of bad area" on the G4-like
// machine, or a machine check when address translation is disabled via the
// MSR (one of the paper's observed G4 register-error effects).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "mem/phys_mem.hpp"

namespace kfi::mem {

// kPageSize / kPageShift live in phys_mem.hpp, next to the per-page write
// versions that share the same geometry.

enum class Access { kRead, kWrite, kExecute };

enum class FaultKind {
  kUnmapped,      // no translation for the page
  kNoRead,        // mapped but read permission missing
  kNoWrite,       // mapped but write-protected (e.g. kernel text)
  kNoExecute,     // mapped but not executable (e.g. data, stack)
  kBusRegion,     // processor-local bus / device region: raises machine check
  kTranslationOff // address translation disabled (MSR.IR/DR cleared)
};

struct MemFault {
  FaultKind kind;
  Addr addr;
  Access access;
};

struct PagePerms {
  bool read = false;
  bool write = false;
  bool execute = false;
  /// Region sits on the simulated processor-local bus; any access raises a
  /// machine-check-class fault (used for the G4 machine-check category).
  bool bus = false;
};

struct TranslateResult {
  /// Valid physical address when fault is empty.
  u32 phys = 0;
  std::optional<MemFault> fault;

  bool ok() const { return !fault.has_value(); }
};

/// Two-level page table: a 1024-entry directory of lazily allocated
/// 1024-entry leaves, one packed word per page.  `map` only runs while a
/// machine builds its address space, so after boot the table is read-only
/// and a lookup is two dependent loads with no hashing.
class Mmu {
 public:
  Mmu();
  ~Mmu();
  Mmu(const Mmu&) = delete;
  Mmu& operator=(const Mmu&) = delete;

  /// Map `pages` consecutive virtual pages starting at `vaddr` (page
  /// aligned) to consecutive physical pages starting at `paddr`.
  void map(Addr vaddr, u32 paddr, u32 pages, PagePerms perms);

  /// Remove the translation for the pages (used for guard pages).
  void unmap(Addr vaddr, u32 pages);

  /// Hot-path translation: true (with *phys set) only for a permitted
  /// access that stays inside one page; false for anything else — a fault
  /// or a page-crossing access — which `translate` then resolves.
  bool try_translate(Addr vaddr, u32 len, Access access, u32* phys) const {
    const u32 e = entry(vaddr >> kPageShift);
    const u32 need = kValid | access_bit(access);
    if ((e & (need | kBus)) != need) return false;
    if ((vaddr & kPageMask) + len > kPageSize) return false;
    *phys = (e & ~kPageMask) | (vaddr & kPageMask);
    return true;
  }

  /// Translate one access of `len` bytes (len in {1,2,4}).  An access that
  /// crosses a page boundary is checked on both pages.  Fault order:
  /// unmapped, bus, permission (first page), then the same on the second
  /// page of a crossing access, whose two frames must be adjacent
  /// (KFI_CHECK).
  TranslateResult translate(Addr vaddr, u32 len, Access access) const {
    TranslateResult result;
    if (try_translate(vaddr, len, access, &result.phys)) return result;
    return translate_slow(vaddr, len, access);
  }

  bool is_mapped(Addr vaddr) const {
    return (entry(vaddr >> kPageShift) & kValid) != 0;
  }

  /// Look up the perms of the page containing vaddr (if mapped).
  std::optional<PagePerms> perms_of(Addr vaddr) const;

 private:
  // Entry word: physical page base in the top 20 bits, flags below.  An
  // all-zero word is an unmapped page.
  static constexpr u32 kValid = 1u << 0;
  static constexpr u32 kRead = 1u << 1;
  static constexpr u32 kWrite = 1u << 2;
  static constexpr u32 kExecute = 1u << 3;
  static constexpr u32 kBus = 1u << 4;
  static constexpr u32 kLeafBits = 10;
  static constexpr u32 kLeafEntries = 1u << kLeafBits;
  using Leaf = std::array<u32, kLeafEntries>;

  static constexpr u32 access_bit(Access access) {
    static_assert(static_cast<u32>(Access::kWrite) == 1 &&
                  static_cast<u32>(Access::kExecute) == 2);
    return kRead << static_cast<u32>(access);
  }

  u32 entry(u32 vpn) const {
    return (*dir_[vpn >> kLeafBits])[vpn & (kLeafEntries - 1)];
  }
  u32& writable_entry(u32 vpn);
  static u32 pack(u32 paddr, const PagePerms& perms);
  static std::optional<MemFault> page_fault(u32 e, Addr vaddr, Access access);

  TranslateResult translate_slow(Addr vaddr, u32 len, Access access) const;

  // Directory slots without a leaf point at one shared all-zero leaf, so a
  // lookup never tests for null.
  static constexpr Leaf kEmptyLeaf{};
  std::array<const Leaf*, kLeafEntries> dir_;
  std::vector<std::unique_ptr<Leaf>> leaves_;  // owns every non-empty leaf
};

}  // namespace kfi::mem
