#include "mem/phys_mem.hpp"

#include <cstring>

#include "common/bits.hpp"

namespace kfi::mem {

namespace {

/// Shared read source for never-written pages; immutable, so every
/// PhysicalMemory instance (and thread) can alias it.
const u8 kZeroPage[kPageSize] = {};

}  // namespace

PhysicalMemory::PhysicalMemory(u32 size_bytes)
    : size_(size_bytes),
      read_pages_((size_bytes + kPageSize - 1) / kPageSize, kZeroPage),
      write_pages_((size_bytes + kPageSize - 1) / kPageSize, nullptr),
      storage_((size_bytes + kPageSize - 1) / kPageSize),
      page_version_((size_bytes + kPageSize - 1) / kPageSize, 0) {
  KFI_CHECK(size_bytes > 0, "physical memory must be non-empty");
}

u8* PhysicalMemory::materialize(u32 page) {
  if (!storage_[page]) {
    storage_[page] = std::make_unique<u8[]>(kPageSize);
  }
  u8* p = storage_[page].get();
  const u32 valid = page_bytes(page);
  std::memcpy(p, read_pages_[page], valid);
  if (valid < kPageSize) std::memset(p + valid, 0, kPageSize - valid);
  read_pages_[page] = p;
  write_pages_[page] = p;
  return p;
}

u32 PhysicalMemory::private_pages() const {
  u32 n = 0;
  for (const auto& s : storage_) n += s != nullptr ? 1 : 0;
  return n;
}

u16 PhysicalMemory::read_split16(u32 pa, Endian endian) const {
  const u8 b0 = read_pages_[pa >> kPageShift][pa & kPageMask];
  const u8 b1 = read_pages_[(pa + 1) >> kPageShift][(pa + 1) & kPageMask];
  if (endian == Endian::kLittle) return static_cast<u16>(b0 | (b1 << 8));
  return static_cast<u16>((b0 << 8) | b1);
}

u32 PhysicalMemory::read_split32(u32 pa, Endian endian) const {
  u8 b[4];
  for (u32 i = 0; i < 4; ++i) {
    b[i] = read_pages_[(pa + i) >> kPageShift][(pa + i) & kPageMask];
  }
  if (endian == Endian::kLittle) {
    return static_cast<u32>(b[0]) | (static_cast<u32>(b[1]) << 8) |
           (static_cast<u32>(b[2]) << 16) | (static_cast<u32>(b[3]) << 24);
  }
  return (static_cast<u32>(b[0]) << 24) | (static_cast<u32>(b[1]) << 16) |
         (static_cast<u32>(b[2]) << 8) | static_cast<u32>(b[3]);
}

void PhysicalMemory::write_split16(u32 pa, u16 value, Endian endian) {
  const u8 hi = static_cast<u8>(value >> 8);
  const u8 lo = static_cast<u8>(value);
  const u8 b0 = endian == Endian::kLittle ? lo : hi;
  const u8 b1 = endian == Endian::kLittle ? hi : lo;
  writable(pa >> kPageShift)[pa & kPageMask] = b0;
  writable((pa + 1) >> kPageShift)[(pa + 1) & kPageMask] = b1;
}

void PhysicalMemory::write_split32(u32 pa, u32 value, Endian endian) {
  u8 b[4];
  if (endian == Endian::kLittle) {
    for (u32 i = 0; i < 4; ++i) b[i] = static_cast<u8>(value >> (8 * i));
  } else {
    for (u32 i = 0; i < 4; ++i) b[i] = static_cast<u8>(value >> (24 - 8 * i));
  }
  for (u32 i = 0; i < 4; ++i) {
    writable((pa + i) >> kPageShift)[(pa + i) & kPageMask] = b[i];
  }
}

void PhysicalMemory::write_bytes(u32 pa, const u8* data, u32 len) {
  check_range(pa, len);
  if (len == 0) return;
  u32 off = pa;
  u32 remain = len;
  const u8* src = data;
  while (remain > 0) {
    const u32 page = off >> kPageShift;
    const u32 in_page = kPageSize - (off & kPageMask);
    const u32 chunk = remain < in_page ? remain : in_page;
    ++page_version_[page];
    std::memcpy(writable(page) + (off & kPageMask), src, chunk);
    off += chunk;
    src += chunk;
    remain -= chunk;
  }
}

void PhysicalMemory::read_bytes(u32 pa, u8* out, u32 len) const {
  check_range(pa, len);
  u32 off = pa;
  u32 remain = len;
  u8* dst = out;
  while (remain > 0) {
    const u32 in_page = kPageSize - (off & kPageMask);
    const u32 chunk = remain < in_page ? remain : in_page;
    std::memcpy(dst, read_pages_[off >> kPageShift] + (off & kPageMask),
                chunk);
    off += chunk;
    dst += chunk;
    remain -= chunk;
  }
}

void PhysicalMemory::flip_bit(u32 pa, u32 bit) {
  check_range(pa, 1);
  KFI_CHECK(bit < 8, "flip_bit: bit index within a byte");
  mark_written(pa, 1);
  u8* p = writable(pa >> kPageShift) + (pa & kPageMask);
  *p = kfi::flip_bit(*p, bit);
}

PhysicalMemory::SnapshotPtr PhysicalMemory::snapshot_shared() {
  auto snap = std::make_shared<Snapshot>(size_, 0);
  read_bytes(0, snap->data(), size_);
  baseline_ = snap;
  baseline_version_ = page_version_;
  // The snapshot holds exactly what every page holds, so aliasing it
  // changes nothing observable — but it lets private storage go.
  adopt_all(baseline_);
  return snap;
}

void PhysicalMemory::adopt_all(const SnapshotPtr& snap) {
  const u8* src = snap->data();
  for (u32 page = 0; page < num_pages(); ++page) {
    read_pages_[page] = src + (page << kPageShift);
    write_pages_[page] = nullptr;
    storage_[page].reset();
  }
}

void PhysicalMemory::restore(const SnapshotPtr& snap) {
  KFI_CHECK(snap && snap->size() == size_, "snapshot size mismatch");
  ++restores_;
  if (snap != baseline_) {
    // Unknown snapshot: no dirty information relative to it — full
    // copy/adoption, and adopt it as the new baseline.
    full_copy(snap);
    return;
  }
  u32 copied = 0;
  const u8* src = snap->data();
  for (u32 page = 0; page < num_pages(); ++page) {
    if (page_version_[page] == baseline_version_[page]) continue;
    // Re-point at the baseline instead of copying; keep the private
    // buffer for the next materialization of this (evidently hot) page.
    read_pages_[page] = src + (page << kPageShift);
    write_pages_[page] = nullptr;
    // The page's contents just changed again, so its version must move —
    // a cached decode of the dirtied bytes is stale after the reboot.
    ++page_version_[page];
    baseline_version_[page] = page_version_[page];
    ++copied;
  }
  restore_pages_copied_ += copied;
  last_restore_pages_ = copied;
}

void PhysicalMemory::restore_full(const SnapshotPtr& snap) {
  KFI_CHECK(snap && snap->size() == size_, "snapshot size mismatch");
  ++restores_;
  full_copy(snap);
}

void PhysicalMemory::full_copy(const SnapshotPtr& snap) {
  adopt_all(snap);
  for (auto& v : page_version_) ++v;
  baseline_ = snap;
  baseline_version_ = page_version_;
  restore_pages_copied_ += num_pages();
  last_restore_pages_ = num_pages();
}

}  // namespace kfi::mem
