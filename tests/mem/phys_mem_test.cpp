#include "mem/phys_mem.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace kfi::mem {
namespace {

TEST(PhysicalMemoryTest, ByteReadWrite) {
  PhysicalMemory pm(4096);
  pm.write8(0, 0xAB);
  pm.write8(4095, 0xCD);
  EXPECT_EQ(pm.read8(0), 0xAB);
  EXPECT_EQ(pm.read8(4095), 0xCD);
  EXPECT_EQ(pm.read8(100), 0);  // zero-initialized
}

TEST(PhysicalMemoryTest, LittleEndian32) {
  PhysicalMemory pm(64);
  pm.write32(0, 0x11223344u, Endian::kLittle);
  EXPECT_EQ(pm.read8(0), 0x44);
  EXPECT_EQ(pm.read8(3), 0x11);
  EXPECT_EQ(pm.read32(0, Endian::kLittle), 0x11223344u);
}

TEST(PhysicalMemoryTest, BigEndian32) {
  PhysicalMemory pm(64);
  pm.write32(0, 0x11223344u, Endian::kBig);
  EXPECT_EQ(pm.read8(0), 0x11);
  EXPECT_EQ(pm.read8(3), 0x44);
  EXPECT_EQ(pm.read32(0, Endian::kBig), 0x11223344u);
}

TEST(PhysicalMemoryTest, EndiannessesAreMirrored) {
  PhysicalMemory pm(64);
  pm.write32(0, 0xDEADBEEFu, Endian::kLittle);
  EXPECT_EQ(pm.read32(0, Endian::kBig), 0xEFBEADDEu);
  pm.write16(8, 0x1234, Endian::kBig);
  EXPECT_EQ(pm.read16(8, Endian::kLittle), 0x3412);
}

TEST(PhysicalMemoryTest, FlipBitChangesSingleMemoryBit) {
  PhysicalMemory pm(16);
  pm.write8(5, 0b1010);
  pm.flip_bit(5, 1);
  EXPECT_EQ(pm.read8(5), 0b1000);
  pm.flip_bit(5, 1);
  EXPECT_EQ(pm.read8(5), 0b1010);
}

TEST(PhysicalMemoryTest, OutOfRangeAccessThrows) {
  PhysicalMemory pm(16);
  EXPECT_THROW(pm.read8(16), InternalError);
  EXPECT_THROW(pm.read32(13, Endian::kLittle), InternalError);
  EXPECT_THROW(pm.write32(0xFFFFFFFFu, 0, Endian::kBig), InternalError);
}

TEST(PhysicalMemoryTest, SnapshotRestoreIsExact) {
  PhysicalMemory pm(128);
  for (u32 i = 0; i < 128; ++i) pm.write8(i, static_cast<u8>(i * 7));
  const auto snap = pm.snapshot_shared();
  for (u32 i = 0; i < 128; ++i) pm.write8(i, 0);
  pm.restore(snap);
  for (u32 i = 0; i < 128; ++i) EXPECT_EQ(pm.read8(i), static_cast<u8>(i * 7));
}

TEST(PhysicalMemoryTest, BulkBytesRoundTrip) {
  PhysicalMemory pm(64);
  const u8 data[5] = {1, 2, 3, 4, 5};
  pm.write_bytes(10, data, 5);
  u8 out[5] = {};
  pm.read_bytes(10, out, 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], data[i]);
}

TEST(PhysicalMemoryTest, EveryWritePathBumpsPageVersions) {
  PhysicalMemory pm(4 * kPageSize);
  ASSERT_EQ(pm.num_pages(), 4u);
  u64 v0 = pm.page_version(0);
  pm.write8(0, 1);
  EXPECT_GT(pm.page_version(0), v0);

  v0 = pm.page_version(0);
  const u64 v1 = pm.page_version(1);
  // A straddling write bumps both pages it touches.
  pm.write32(kPageSize - 2, 0x01020304u, Endian::kBig);
  EXPECT_GT(pm.page_version(0), v0);
  EXPECT_GT(pm.page_version(1), v1);

  const u64 v2 = pm.page_version(2);
  pm.flip_bit(2 * kPageSize + 7, 3);
  EXPECT_GT(pm.page_version(2), v2);

  const u64 v3 = pm.page_version(3);
  const u8 data[3] = {9, 9, 9};
  pm.write_bytes(3 * kPageSize + 100, data, 3);
  EXPECT_GT(pm.page_version(3), v3);

  // Reads never bump.
  const u64 before = pm.page_version(0);
  (void)pm.read32(0, Endian::kLittle);
  u8 out[8];
  pm.read_bytes(0, out, 8);
  EXPECT_EQ(pm.page_version(0), before);
}

TEST(PhysicalMemoryTest, SharedSnapshotFastRestoreCopiesOnlyDirtyPages) {
  PhysicalMemory pm(8 * kPageSize);
  for (u32 p = 0; p < 8; ++p) pm.write8(p * kPageSize, static_cast<u8>(p + 1));
  const auto snap = pm.snapshot_shared();

  // Dirty a scattered subset of pages.
  pm.write8(1 * kPageSize + 5, 0xAA);
  pm.flip_bit(4 * kPageSize + 9, 2);
  pm.write32(6 * kPageSize, 0xDEADBEEFu, Endian::kBig);

  pm.restore(snap);
  EXPECT_EQ(pm.last_restore_pages(), 3u);
  for (u32 p = 0; p < 8; ++p) {
    EXPECT_EQ(pm.read8(p * kPageSize), static_cast<u8>(p + 1));
  }
  EXPECT_EQ(pm.read8(1 * kPageSize + 5), 0);
  // Page 6's first word reverts to its snapshot content: 0x07 then zeros.
  EXPECT_EQ(pm.read32(6 * kPageSize, Endian::kBig), 0x07000000u);

  // A restore with nothing dirty copies nothing.
  pm.restore(snap);
  EXPECT_EQ(pm.last_restore_pages(), 0u);
}

TEST(PhysicalMemoryTest, FastRestoreMatchesFullCopyByteForByte) {
  PhysicalMemory fast(4 * kPageSize);
  PhysicalMemory full(4 * kPageSize);
  for (u32 i = 0; i < 4 * kPageSize; i += 37) {
    fast.write8(i, static_cast<u8>(i));
    full.write8(i, static_cast<u8>(i));
  }
  const auto fast_snap = fast.snapshot_shared();
  const auto full_snap = full.snapshot_shared();
  // Dirty only the first two pages so the fast path has clean ones to skip.
  for (u32 i = 0; i < 2 * kPageSize; i += 91) {
    fast.write8(i, 0xEE);
    full.write8(i, 0xEE);
  }
  fast.restore(fast_snap);
  full.restore_full(full_snap);
  EXPECT_LT(fast.last_restore_pages(), fast.num_pages());
  EXPECT_EQ(full.last_restore_pages(), full.num_pages());
  for (u32 i = 0; i < 4 * kPageSize; ++i) {
    ASSERT_EQ(fast.read8(i), full.read8(i)) << "byte " << i;
  }
}

TEST(PhysicalMemoryTest, RestoreBumpsVersionsOfRewrittenPages) {
  // A restore rewrites page contents, so anything caching decoded bytes
  // must see the version move — for dirty pages on the fast path and for
  // every page on the full-copy path.
  PhysicalMemory pm(2 * kPageSize);
  const auto snap = pm.snapshot_shared();
  pm.write8(kPageSize, 0x55);
  const u64 dirty_v = pm.page_version(1);
  const u64 clean_v = pm.page_version(0);
  pm.restore(snap);
  EXPECT_GT(pm.page_version(1), dirty_v);
  EXPECT_EQ(pm.page_version(0), clean_v);  // untouched page: no bump
  const u64 v0 = pm.page_version(0);
  pm.restore_full(snap);
  EXPECT_GT(pm.page_version(0), v0);
}

TEST(PhysicalMemoryTest, ForeignSnapshotRestoresViaFullCopyAndRebases) {
  PhysicalMemory pm(2 * kPageSize);
  pm.write8(0, 1);
  const auto snap_a = pm.snapshot_shared();
  pm.write8(0, 2);
  const auto snap_b = pm.snapshot_shared();  // baseline is now b
  pm.write8(0, 3);
  pm.restore(snap_a);  // not the baseline: full copy, a becomes baseline
  EXPECT_EQ(pm.read8(0), 1);
  EXPECT_EQ(pm.last_restore_pages(), pm.num_pages());
  pm.write8(kPageSize, 7);
  pm.restore(snap_a);  // now the baseline: dirty-page path
  EXPECT_EQ(pm.last_restore_pages(), 1u);
  EXPECT_EQ(pm.read8(kPageSize), 0);
  EXPECT_EQ(pm.read8(0), 1);
  (void)snap_b;
}

TEST(PhysicalMemoryTest, PartialLastPageRestores) {
  // Memory whose size is not page-aligned: the last (short) page must
  // restore without touching out-of-range bytes.
  PhysicalMemory pm(kPageSize + 64);
  const auto snap = pm.snapshot_shared();
  pm.write8(kPageSize + 63, 0xFF);
  pm.restore(snap);
  EXPECT_EQ(pm.read8(kPageSize + 63), 0);
  EXPECT_EQ(pm.last_restore_pages(), 1u);
}

}  // namespace
}  // namespace kfi::mem
