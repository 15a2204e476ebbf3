#include "mem/mmu.hpp"

#include "common/error.hpp"

namespace kfi::mem {

Mmu::Mmu() { dir_.fill(&kEmptyLeaf); }

Mmu::~Mmu() = default;

u32 Mmu::pack(u32 paddr, const PagePerms& perms) {
  return paddr | kValid | (perms.read ? kRead : 0) |
         (perms.write ? kWrite : 0) | (perms.execute ? kExecute : 0) |
         (perms.bus ? kBus : 0);
}

u32& Mmu::writable_entry(u32 vpn) {
  const Leaf*& slot = dir_[vpn >> kLeafBits];
  if (slot == &kEmptyLeaf) {
    leaves_.push_back(std::make_unique<Leaf>());
    leaves_.back()->fill(0);
    slot = leaves_.back().get();
  }
  // Every slot other than kEmptyLeaf points into leaves_, which owns it
  // mutably.
  return const_cast<Leaf&>(*slot)[vpn & (kLeafEntries - 1)];
}

void Mmu::map(Addr vaddr, u32 paddr, u32 pages, PagePerms perms) {
  KFI_CHECK((vaddr & (kPageSize - 1)) == 0, "map: vaddr not page aligned");
  KFI_CHECK((paddr & (kPageSize - 1)) == 0, "map: paddr not page aligned");
  KFI_CHECK(pages <= (0x100000000ull - vaddr) >> kPageShift,
            "map: range wraps the address space");
  for (u32 i = 0; i < pages; ++i) {
    writable_entry((vaddr >> kPageShift) + i) =
        pack(paddr + i * kPageSize, perms);
  }
}

void Mmu::unmap(Addr vaddr, u32 pages) {
  KFI_CHECK((vaddr & (kPageSize - 1)) == 0, "unmap: vaddr not page aligned");
  KFI_CHECK(pages <= (0x100000000ull - vaddr) >> kPageShift,
            "unmap: range wraps the address space");
  for (u32 i = 0; i < pages; ++i) {
    const u32 vpn = (vaddr >> kPageShift) + i;
    if (entry(vpn) != 0) writable_entry(vpn) = 0;
  }
}

std::optional<MemFault> Mmu::page_fault(u32 e, Addr vaddr, Access access) {
  if ((e & kValid) == 0) return MemFault{FaultKind::kUnmapped, vaddr, access};
  if ((e & kBus) != 0) return MemFault{FaultKind::kBusRegion, vaddr, access};
  if ((e & access_bit(access)) == 0) {
    switch (access) {
      case Access::kRead: return MemFault{FaultKind::kNoRead, vaddr, access};
      case Access::kWrite: return MemFault{FaultKind::kNoWrite, vaddr, access};
      case Access::kExecute:
        return MemFault{FaultKind::kNoExecute, vaddr, access};
    }
  }
  return std::nullopt;
}

TranslateResult Mmu::translate_slow(Addr vaddr, u32 len, Access access) const {
  TranslateResult result;
  const u32 e = entry(vaddr >> kPageShift);
  result.fault = page_fault(e, vaddr, access);
  if (result.fault) return result;
  const Addr last = vaddr + len - 1;
  if ((last >> kPageShift) != (vaddr >> kPageShift)) {
    const u32 e2 = entry(last >> kPageShift);
    result.fault = page_fault(e2, last, access);
    if (result.fault) return result;
    // Split accesses across non-contiguous frames are not needed by either
    // simulated kernel; require physical contiguity for simplicity.
    KFI_CHECK((e2 >> kPageShift) == (e >> kPageShift) + 1,
              "page-crossing access to non-adjacent frames");
  }
  result.phys = (e & ~kPageMask) | (vaddr & kPageMask);
  return result;
}

std::optional<PagePerms> Mmu::perms_of(Addr vaddr) const {
  const u32 e = entry(vaddr >> kPageShift);
  if ((e & kValid) == 0) return std::nullopt;
  return PagePerms{.read = (e & kRead) != 0,
                   .write = (e & kWrite) != 0,
                   .execute = (e & kExecute) != 0,
                   .bus = (e & kBus) != 0};
}

}  // namespace kfi::mem
