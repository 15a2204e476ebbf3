// Copy-on-write page sharing contract of PhysicalMemory: snapshots are
// shared immutable buffers that pages alias until first write, so the
// resident footprint of a machine rebooting from a shared snapshot is its
// dirty working set, not a full memory image.  Sharing is invisible:
// contents and page write-versions match a flat-array model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/phys_mem.hpp"

namespace kfi::mem {
namespace {

constexpr u32 kSize = 8 * kPageSize;

TEST(CowTest, SharedSnapshotReleasesPrivateStorage) {
  PhysicalMemory pm(kSize);
  for (u32 page = 0; page < pm.num_pages(); ++page) {
    pm.write32(page * kPageSize, 0xA0B0C0D0u + page, Endian::kLittle);
  }
  EXPECT_EQ(pm.private_pages(), pm.num_pages());
  const auto snap = pm.snapshot_shared();
  // Every page now aliases the snapshot buffer; contents are unchanged.
  EXPECT_EQ(pm.private_pages(), 0u);
  for (u32 page = 0; page < pm.num_pages(); ++page) {
    EXPECT_EQ(pm.read32(page * kPageSize, Endian::kLittle),
              0xA0B0C0D0u + page);
  }
}

TEST(CowTest, FirstWriteMaterializesOnlyTheTouchedPage) {
  PhysicalMemory pm(kSize);
  pm.write32(2 * kPageSize, 0x11111111u, Endian::kLittle);
  const auto snap = pm.snapshot_shared();
  const u64 ver_before = pm.page_version(2);

  pm.write8(2 * kPageSize, 0x7F);
  EXPECT_EQ(pm.private_pages(), 1u);
  EXPECT_GT(pm.page_version(2), ver_before);  // caches must re-decode
  EXPECT_EQ(pm.read8(2 * kPageSize), 0x7F);

  // The shared snapshot buffer is immutable: a second memory restored
  // from it still sees the original bytes.
  PhysicalMemory other(kSize);
  other.restore(snap);
  EXPECT_EQ(other.read32(2 * kPageSize, Endian::kLittle), 0x11111111u);
}

TEST(CowTest, BaselineRestoreRepointsDirtyPagesAndBumpsVersions) {
  PhysicalMemory pm(kSize);
  pm.write32(0, 0xCAFEF00Du, Endian::kLittle);
  const auto snap = pm.snapshot_shared();

  pm.write32(0, 0xDEADBEEFu, Endian::kLittle);
  pm.write8(3 * kPageSize + 7, 0x42);
  const u64 ver0 = pm.page_version(0);
  const u64 ver3 = pm.page_version(3);

  pm.restore(snap);
  EXPECT_EQ(pm.last_restore_pages(), 2u);  // only the two dirty pages
  EXPECT_EQ(pm.read32(0, Endian::kLittle), 0xCAFEF00Du);
  EXPECT_EQ(pm.read8(3 * kPageSize + 7), 0x00);
  // The reboot rewrote those pages, so their versions must move again.
  EXPECT_GT(pm.page_version(0), ver0);
  EXPECT_GT(pm.page_version(3), ver3);
  // Private buffers are retained for re-materialization, so the resident
  // count stays at the dirty high-water mark rather than re-allocating.
  EXPECT_LE(pm.private_pages(), 2u);
}

TEST(CowTest, ForeignSnapshotRestoreAdoptsAndReleases) {
  PhysicalMemory pm(kSize);
  pm.write32(0, 1, Endian::kLittle);
  const auto snap_a = pm.snapshot_shared();
  pm.write32(0, 2, Endian::kLittle);
  const auto snap_b = pm.snapshot_shared();  // baseline is now b

  pm.write32(4 * kPageSize, 99, Endian::kLittle);
  pm.restore(snap_a);  // non-baseline: full adoption
  EXPECT_EQ(pm.read32(0, Endian::kLittle), 1u);
  EXPECT_EQ(pm.read32(4 * kPageSize, Endian::kLittle), 0u);
  EXPECT_EQ(pm.private_pages(), 0u);  // adoption re-points every page
}

/// Reference model sharing no code with PhysicalMemory: flat bytes plus
/// one write counter per page, bumped once by every operation that
/// touches the page.
struct FlatModel {
  std::vector<u8> bytes = std::vector<u8>(kSize, 0);
  std::vector<u64> versions = std::vector<u64>(kSize / kPageSize, 0);

  void write(u32 pa, const std::vector<u8>& data) {
    std::copy(data.begin(), data.end(), bytes.begin() + pa);
    const u32 last = pa + static_cast<u32>(data.size()) - 1;
    for (u32 page = pa / kPageSize; page <= last / kPageSize; ++page) {
      ++versions[page];
    }
  }
  /// Reboot to `snap` (a copy of this model): every page written since
  /// gets its bytes back and one more version bump.
  void restore(const FlatModel& snap) {
    for (u32 page = 0; page < versions.size(); ++page) {
      if (versions[page] == snap.versions[page]) continue;
      const u32 off = page * kPageSize;
      std::copy_n(snap.bytes.begin() + off, kPageSize, bytes.begin() + off);
      ++versions[page];
    }
  }
};

TEST(CowTest, MatchesFlatModelInContentAndVersions) {
  // Sharing pages must be invisible: bytes and page write-versions (the
  // superblock cache keys on versions) must match the flat model through
  // writes, a shared snapshot, more writes, and a baseline restore.
  PhysicalMemory pm(kSize);
  FlatModel model;
  pm.write32(100, 0x01020304u, Endian::kBig);
  model.write(100, {0x01, 0x02, 0x03, 0x04});
  pm.write_bytes(2 * kPageSize - 2, reinterpret_cast<const u8*>("abcd"),
                 4);  // page-straddling write
  model.write(2 * kPageSize - 2, {'a', 'b', 'c', 'd'});
  const auto snap = pm.snapshot_shared();
  const FlatModel model_snap = model;
  pm.flip_bit(100, 3);
  model.write(100, {static_cast<u8>(model.bytes[100] ^ 0x08)});
  pm.write8(5 * kPageSize + 1, 0xEE);
  model.write(5 * kPageSize + 1, {0xEE});
  pm.restore(snap);
  model.restore(model_snap);

  std::vector<u8> got(kSize);
  pm.read_bytes(0, got.data(), kSize);
  EXPECT_EQ(got, model.bytes);
  for (u32 page = 0; page < pm.num_pages(); ++page) {
    EXPECT_EQ(pm.page_version(page), model.versions[page]) << "page " << page;
  }
  // Only the two pages written after the snapshot ever went private.
  EXPECT_LE(pm.private_pages(), 2u);
}

}  // namespace
}  // namespace kfi::mem
