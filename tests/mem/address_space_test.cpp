#include "mem/address_space.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace kfi::mem {
namespace {

TEST(AddressSpaceTest, MapRegionAllocatesFrames) {
  AddressSpace space(64 * 1024, Endian::kLittle);
  // Copies: a second map_region may reallocate the region table.
  const Region a = space.map_region("a", 0x10000, 4096, {.read = true});
  const Region b = space.map_region("b", 0x20000, 4096, {.read = true});
  EXPECT_EQ(a.size, 4096u);
  EXPECT_EQ(b.size, 4096u);
  // Distinct regions get distinct physical frames.
  space.vwrite8(0x10000, 1);
  EXPECT_EQ(space.vread8(0x20000), 0);
}

TEST(AddressSpaceTest, RegionLookupByAddressAndName) {
  AddressSpace space(64 * 1024, Endian::kBig);
  space.map_region("text", 0x1000, 8192, {.read = true, .execute = true});
  space.note_unmapped("null_page", 0, 4096);
  const Region* r = space.region_of(0x1FFF);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->name, "text");
  EXPECT_EQ(space.region_of(0x0)->name, "null_page");
  EXPECT_EQ(space.region_of(0x100000), nullptr);
  EXPECT_NE(space.region_named("text"), nullptr);
  EXPECT_EQ(space.region_named("absent"), nullptr);
}

TEST(AddressSpaceTest, EndianRespectingWordAccess) {
  AddressSpace le(64 * 1024, Endian::kLittle);
  le.map_region("d", 0x1000, 4096, {.read = true, .write = true});
  le.vwrite32(0x1000, 0x01020304u);
  EXPECT_EQ(le.vread8(0x1000), 0x04);

  AddressSpace be(64 * 1024, Endian::kBig);
  be.map_region("d", 0x1000, 4096, {.read = true, .write = true});
  be.vwrite32(0x1000, 0x01020304u);
  EXPECT_EQ(be.vread8(0x1000), 0x01);
}

TEST(AddressSpaceTest, VflipBitFlipsMemory) {
  AddressSpace space(64 * 1024, Endian::kLittle);
  space.map_region("d", 0x1000, 4096, {.read = true, .write = true});
  space.vwrite8(0x1234, 0x0F);
  space.vflip_bit(0x1234, 7);
  EXPECT_EQ(space.vread8(0x1234), 0x8F);
}

TEST(AddressSpaceTest, HostAccessCanWriteThroughWriteProtection) {
  // The loader writes the read-only text region through the host facade.
  AddressSpace space(64 * 1024, Endian::kLittle);
  space.map_region("text", 0x1000, 4096, {.read = true, .execute = true});
  space.vwrite8(0x1000, 0x90);
  EXPECT_EQ(space.vread8(0x1000), 0x90);
  // The CPU-visible translation still denies writes.
  EXPECT_FALSE(space.translate(0x1000, 1, Access::kWrite).ok());
}

TEST(AddressSpaceTest, RunsOutOfPhysicalMemory) {
  AddressSpace space(8 * 1024, Endian::kLittle);  // 2 frames (1 reserved)
  space.map_region("a", 0x1000, 4096, {.read = true});
  EXPECT_THROW(space.map_region("b", 0x10000, 8192, {.read = true}),
               InternalError);
}

TEST(AddressSpaceTest, BulkBytesRoundTrip) {
  AddressSpace space(64 * 1024, Endian::kBig);
  space.map_region("d", 0x2000, 8192, {.read = true, .write = true});
  std::vector<u8> data(100);
  for (u32 i = 0; i < 100; ++i) data[i] = static_cast<u8>(i ^ 0x5A);
  space.vwrite_bytes(0x2F00, data.data(), 100);
  std::vector<u8> out(100);
  space.vread_bytes(0x2F00, out.data(), 100);
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace kfi::mem
