#include "mem/mmu.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace kfi::mem {
namespace {

PagePerms rw() { return {.read = true, .write = true}; }
PagePerms rx() { return {.read = true, .execute = true}; }

TEST(MmuTest, UnmappedAccessFaults) {
  Mmu mmu;
  const auto r = mmu.translate(0x1000, 4, Access::kRead);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kUnmapped);
  EXPECT_EQ(r.fault->addr, 0x1000u);
}

TEST(MmuTest, MappedPageTranslates) {
  Mmu mmu;
  mmu.map(0xC0000000u, 0x5000, 2, rw());
  const auto r = mmu.translate(0xC0000123u, 4, Access::kRead);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.phys, 0x5123u);
  const auto r2 = mmu.translate(0xC0001FF0u, 4, Access::kWrite);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.phys, 0x6FF0u);
}

TEST(MmuTest, PermissionFaults) {
  Mmu mmu;
  mmu.map(0x1000, 0x2000, 1, rx());
  EXPECT_TRUE(mmu.translate(0x1000, 4, Access::kRead).ok());
  EXPECT_TRUE(mmu.translate(0x1000, 4, Access::kExecute).ok());
  const auto w = mmu.translate(0x1000, 4, Access::kWrite);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.fault->kind, FaultKind::kNoWrite);
}

TEST(MmuTest, NoExecuteFault) {
  Mmu mmu;
  mmu.map(0x1000, 0x2000, 1, rw());
  const auto x = mmu.translate(0x1000, 4, Access::kExecute);
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.fault->kind, FaultKind::kNoExecute);
}

TEST(MmuTest, BusRegionRaisesBusFault) {
  Mmu mmu;
  PagePerms bus;
  bus.bus = true;
  mmu.map(0xFE000000u, 0x3000, 1, bus);
  const auto r = mmu.translate(0xFE000010u, 4, Access::kRead);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kBusRegion);
}

TEST(MmuTest, PageCrossingAccessChecksBothPages) {
  Mmu mmu;
  mmu.map(0x1000, 0x4000, 1, rw());  // only one page mapped
  const auto r = mmu.translate(0x1FFE, 4, Access::kRead);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kUnmapped);
  EXPECT_EQ(r.fault->addr, 0x2001u);  // the first unmapped byte's page
}

TEST(MmuTest, PageCrossingAccessOkOnContiguousFrames) {
  Mmu mmu;
  mmu.map(0x1000, 0x4000, 2, rw());
  const auto r = mmu.translate(0x1FFE, 4, Access::kRead);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.phys, 0x4FFEu);
}

TEST(MmuTest, UnmapRemovesTranslation) {
  Mmu mmu;
  mmu.map(0x1000, 0x4000, 1, rw());
  EXPECT_TRUE(mmu.is_mapped(0x1000));
  mmu.unmap(0x1000, 1);
  EXPECT_FALSE(mmu.is_mapped(0x1000));
  EXPECT_FALSE(mmu.translate(0x1000, 1, Access::kRead).ok());
}

TEST(MmuTest, GuardPageBetweenMappingsFaults) {
  // The per-task kernel stacks are separated by unmapped guard pages; a
  // stack overrun must fault rather than silently spill.
  Mmu mmu;
  mmu.map(0x10000, 0x4000, 1, rw());
  mmu.map(0x12000, 0x5000, 1, rw());
  EXPECT_TRUE(mmu.translate(0x10000, 4, Access::kRead).ok());
  EXPECT_FALSE(mmu.translate(0x11000, 4, Access::kRead).ok());
  EXPECT_TRUE(mmu.translate(0x12000, 4, Access::kRead).ok());
}

// --- Oracle: Mmu against an independent reference translator -------------

// The documented translation semantics, written as plainly as possible and
// sharing no code with Mmu: an ordered map from virtual page number to
// (frame, perms), and the fault order unmapped -> bus -> permission on the
// first page, then the same on the second page of a crossing access, then
// the requirement that crossing pages sit in adjacent frames.
class RefMmu {
 public:
  struct Outcome {
    bool ok = false;
    bool non_adjacent = false;  // Mmu must throw InternalError
    u32 phys = 0;
    FaultKind kind = FaultKind::kUnmapped;
    Addr fault_addr = 0;
  };

  void map(Addr vaddr, u32 paddr, u32 pages, PagePerms perms) {
    for (u32 i = 0; i < pages; ++i) {
      pages_[vaddr / kPageSize + i] = Page{paddr / kPageSize + i, perms};
    }
  }
  void unmap(Addr vaddr, u32 pages) {
    for (u32 i = 0; i < pages; ++i) pages_.erase(vaddr / kPageSize + i);
  }
  const PagePerms* perms(u32 vpn) const {
    const auto it = pages_.find(vpn);
    return it == pages_.end() ? nullptr : &it->second.perms;
  }

  Outcome translate(Addr vaddr, u32 len, Access access) const {
    Outcome out;
    const u32 first = vaddr / kPageSize;
    const Addr last = vaddr + len - 1;  // wraps past 0xFFFFFFFF
    const u32 second = last / kPageSize;
    if (faults(first, vaddr, access, out)) return out;
    if (second != first) {
      if (faults(second, last, access, out)) return out;
      if (pages_.at(second).frame != pages_.at(first).frame + 1) {
        out.non_adjacent = true;
        return out;
      }
    }
    out.ok = true;
    out.phys = pages_.at(first).frame * kPageSize + vaddr % kPageSize;
    return out;
  }

 private:
  struct Page {
    u32 frame;
    PagePerms perms;
  };

  bool faults(u32 vpn, Addr addr, Access access, Outcome& out) const {
    out.fault_addr = addr;
    const auto it = pages_.find(vpn);
    if (it == pages_.end()) {
      out.kind = FaultKind::kUnmapped;
      return true;
    }
    const PagePerms& p = it->second.perms;
    if (p.bus) {
      out.kind = FaultKind::kBusRegion;
      return true;
    }
    if (access == Access::kRead && !p.read) {
      out.kind = FaultKind::kNoRead;
      return true;
    }
    if (access == Access::kWrite && !p.write) {
      out.kind = FaultKind::kNoWrite;
      return true;
    }
    if (access == Access::kExecute && !p.execute) {
      out.kind = FaultKind::kNoExecute;
      return true;
    }
    return false;
  }

  std::map<u32, Page> pages_;
};

// One seeded layout, applied to both translators.  Every layout has a NULL
// page that may or may not be mapped, guard gaps inside runs, bus pages, a
// run of adjacent virtual pages on scattered frames, a mapping across the
// 0xC0400000 leaf boundary, and the top page (so vaddr 0xFFFFFFFF len 4
// wraps onto page 0), plus a few random runs.
struct Layout {
  Mmu mmu;
  RefMmu ref;
  std::set<u32> probe;  // virtual pages whose every byte is checked

  explicit Layout(u64 seed) {
    Rng rng(seed);
    u32 next_frame = 1;
    const auto perms = [&] {
      PagePerms p;
      p.read = rng.chance(0.7);
      p.write = rng.chance(0.5);
      p.execute = rng.chance(0.4);
      p.bus = rng.chance(0.1);
      return p;
    };
    const auto map = [&](Addr vaddr, u32 frame, u32 pages, PagePerms p) {
      mmu.map(vaddr, frame * kPageSize, pages, p);
      ref.map(vaddr, frame * kPageSize, pages, p);
      for (u32 i = 0; i < pages; ++i) note(vaddr / kPageSize + i);
    };
    const auto run = [&](Addr vaddr, u32 pages) {
      map(vaddr, next_frame, pages, perms());
      next_frame += pages + static_cast<u32>(rng.below(3));
    };
    const auto unmap = [&](Addr vaddr) {
      mmu.unmap(vaddr, 1);
      ref.unmap(vaddr, 1);
    };

    if (rng.chance(0.5)) run(0x0, 1);  // the NULL page
    run(0x1000, 3);
    unmap(0x2000);  // guard gap inside a run
    // Across the leaf boundary, page by page: adjacent frames or not.
    const u32 f = next_frame;
    map(0xC03FE000u, f, 1, perms());
    map(0xC03FF000u, f + 1, 1, perms());
    map(0xC0400000u, rng.chance(0.5) ? f + 2 : f + 7, 1, perms());
    next_frame = f + 8;
    run(0xC1000000u, 6);
    unmap(0xC1000000u + kPageSize * static_cast<u32>(rng.range(1, 4)));
    // Bus page between ordinary pages.
    run(0xFDFFF000u, 1);
    map(0xFE000000u, next_frame++, 1,
        PagePerms{.read = true, .write = true, .bus = true});
    run(0xFE001000u, 1);
    // Adjacent virtual pages on scattered frames.
    for (u32 i = 0; i < 4; ++i) {
      map(0xC2000000u + i * kPageSize, next_frame + (3 - i) * 2, 1, perms());
    }
    next_frame += 8;
    // The top page; vaddr 0xFFFFFFFF with len 4 wraps to page 0.
    if (rng.chance(0.75)) run(0xFFFFF000u, 1);
    for (u32 i = 0; i < 3; ++i) {
      run(static_cast<u32>(rng.below(0xFFFF0)) * kPageSize,
          static_cast<u32>(rng.range(1, 3)));
    }
  }

  void note(u32 vpn) {
    // A mapped page and both neighbours (wrapping at the top).
    probe.insert(vpn);
    probe.insert((vpn + 1) & 0xFFFFF);
    probe.insert((vpn - 1) & 0xFFFFF);
  }
};

std::string describe(Addr vaddr, u32 len, Access access) {
  std::ostringstream os;
  os << "vaddr=0x" << std::hex << vaddr << std::dec << " len=" << len
     << " access=" << static_cast<int>(access);
  return os.str();
}

TEST(MmuOracleTest, TranslateMatchesReferenceOnSeededLayouts) {
  constexpr Access kAccesses[] = {Access::kRead, Access::kWrite,
                                  Access::kExecute};
  constexpr u32 kLens[] = {1, 2, 4};
  u64 checked = 0, non_adjacent = 0, fast_hits = 0;
  for (u64 seed = 1; seed <= 4; ++seed) {
    const Layout layout(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_TRUE(layout.probe.contains(0xFFFFF));
    ASSERT_TRUE(layout.probe.contains(0));
    u32 failures = 0;
    for (const u32 vpn : layout.probe) {
      const PagePerms* rp = layout.ref.perms(vpn);
      const Addr page_va = vpn * kPageSize;
      ASSERT_EQ(layout.mmu.is_mapped(page_va), rp != nullptr);
      const auto mp = layout.mmu.perms_of(page_va);
      ASSERT_EQ(mp.has_value(), rp != nullptr);
      if (rp != nullptr) {
        EXPECT_EQ(mp->read, rp->read);
        EXPECT_EQ(mp->write, rp->write);
        EXPECT_EQ(mp->execute, rp->execute);
        EXPECT_EQ(mp->bus, rp->bus);
      }
      for (u32 off = 0; off < kPageSize && failures < 10; ++off) {
        const Addr vaddr = page_va + off;
        for (const u32 len : kLens) {
          for (const Access access : kAccesses) {
            ++checked;
            const RefMmu::Outcome want = layout.ref.translate(vaddr, len,
                                                              access);
            const bool crosses = off + len > kPageSize;
            u32 fast_phys = 0;
            const bool fast =
                layout.mmu.try_translate(vaddr, len, access, &fast_phys);
            fast_hits += fast;
            if (fast != (want.ok && !crosses) ||
                (fast && fast_phys != want.phys)) {
              ++failures;
              ADD_FAILURE() << "try_translate " << describe(vaddr, len, access)
                            << " returned " << fast;
            }
            if (want.non_adjacent) {
              ++non_adjacent;
              EXPECT_THROW(layout.mmu.translate(vaddr, len, access),
                           InternalError)
                  << describe(vaddr, len, access);
              continue;
            }
            const TranslateResult got = layout.mmu.translate(vaddr, len,
                                                             access);
            const bool same =
                got.ok() == want.ok &&
                (want.ok ? got.phys == want.phys
                         : got.fault->kind == want.kind &&
                               got.fault->addr == want.fault_addr &&
                               got.fault->access == access);
            if (!same) {
              ++failures;
              ADD_FAILURE() << "translate " << describe(vaddr, len, access)
                            << ": ok=" << got.ok() << " want ok=" << want.ok;
            }
          }
        }
      }
    }
  }
  // The layouts must actually exercise every branch of the slow path.
  EXPECT_GT(non_adjacent, 0u);
  EXPECT_GT(fast_hits, 0u);
  EXPECT_GT(checked, 1000000u);
}

TEST(MmuOracleTest, WrappingAccessChecksPageZero) {
  Mmu mmu;
  mmu.map(0xFFFFF000u, 0x4000, 1, rw());
  const auto r = mmu.translate(0xFFFFFFFFu, 4, Access::kRead);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kUnmapped);
  EXPECT_EQ(r.fault->addr, 0x2u);
  u32 phys = 0;
  EXPECT_FALSE(mmu.try_translate(0xFFFFFFFFu, 4, Access::kRead, &phys));
  EXPECT_TRUE(mmu.try_translate(0xFFFFFFFFu, 1, Access::kRead, &phys));
  EXPECT_EQ(phys, 0x4FFFu);
}

}  // namespace
}  // namespace kfi::mem
