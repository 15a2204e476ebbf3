// Shared big-endian byte codec for the fabric's wire formats.
//
// Every fabric byte format — the CampaignSpec blob, the KFFR status
// frames, and the KFNM network messages — serializes big-endian with the
// same primitive vocabulary, parses through the same bounds-checked
// Reader, and travels in the same checksummed envelope.  Keeping the
// primitives in one header means a new message type cannot invent a
// subtly different integer layout.
#pragma once

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace kfi::fabric::codec {

inline u64 fnv1a(const u8* data, size_t size) {
  u64 h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

inline void put8(std::vector<u8>& out, u8 v) { out.push_back(v); }

inline void put32(std::vector<u8>& out, u32 v) {
  out.push_back(static_cast<u8>(v >> 24));
  out.push_back(static_cast<u8>(v >> 16));
  out.push_back(static_cast<u8>(v >> 8));
  out.push_back(static_cast<u8>(v));
}

inline void put64(std::vector<u8>& out, u64 v) {
  put32(out, static_cast<u32>(v >> 32));
  put32(out, static_cast<u32>(v));
}

/// The two directions of a wire format written once: a format is a
/// function `fields(io, value)` handing every field to `io` in wire
/// order.  Writer appends each field; Reader fills each one in.
struct Writer {
  std::vector<u8> out;

  void operator()(bool v) { put8(out, v ? 1 : 0); }
  void operator()(u8 v) { put8(out, v); }
  void operator()(u32 v) { put32(out, v); }
  void operator()(u64 v) { put64(out, v); }
  void operator()(double v) {
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    put64(out, bits);
  }
  void operator()(const std::string& v) {
    put32(out, static_cast<u32>(v.size()));
    out.insert(out.end(), v.begin(), v.end());
  }
  void operator()(const std::vector<u8>& v) {
    put32(out, static_cast<u32>(v.size()));
    out.insert(out.end(), v.begin(), v.end());
  }
  template <typename E>
  void operator()(E v, E /*first*/, E /*last*/) {
    put8(out, static_cast<u8>(v));
  }
};

/// Bounds-checked big-endian reader (same shape as the journal's): never
/// throws, never overreads, latches `ok = false` on the first short read
/// or on an enum byte outside [first, last].
struct Reader {
  const std::vector<u8>& in;
  size_t pos = 0;
  bool ok = true;

  bool have(size_t n) {
    if (!ok || pos > in.size() || in.size() - pos < n) ok = false;
    return ok;
  }
  u8 get8() {
    if (!have(1)) return 0;
    return in[pos++];
  }
  u32 get32() {
    if (!have(4)) return 0;
    const u32 v = (static_cast<u32>(in[pos]) << 24) |
                  (static_cast<u32>(in[pos + 1]) << 16) |
                  (static_cast<u32>(in[pos + 2]) << 8) |
                  static_cast<u32>(in[pos + 3]);
    pos += 4;
    return v;
  }
  u64 get64() {
    const u64 hi = get32();
    return (hi << 32) | get32();
  }

  void operator()(bool& v) { v = get8() != 0; }
  void operator()(u8& v) { v = get8(); }
  void operator()(u32& v) { v = get32(); }
  void operator()(u64& v) { v = get64(); }
  void operator()(double& v) {
    const u64 bits = get64();
    std::memcpy(&v, &bits, sizeof(v));
  }
  void operator()(std::string& v) {
    std::vector<u8> bytes;
    (*this)(bytes);
    v.assign(bytes.begin(), bytes.end());
  }
  void operator()(std::vector<u8>& v) {
    const u32 len = get32();
    if (!have(len)) return;
    v.assign(in.begin() + static_cast<long>(pos),
             in.begin() + static_cast<long>(pos + len));
    pos += len;
  }
  template <typename E>
  void operator()(E& v, E first, E last) {
    const u8 b = get8();
    if (b < static_cast<u8>(first) || b > static_cast<u8>(last)) ok = false;
    v = static_cast<E>(b);
  }
  /// Every field decoded and nothing trails them.
  bool done() const { return ok && pos == in.size(); }
};

/// A whole byte format through its field list: `fields` is the
/// format's fields<Writer, const T> or fields<Reader, T> instantiation.
/// decode() fails on a short read, a bad enum byte or trailing bytes.
template <typename T>
std::vector<u8> encode(void (*fields)(Writer&, const T&), const T& value) {
  Writer w;
  fields(w, value);
  return std::move(w.out);
}

template <typename T>
std::optional<T> decode(void (*fields)(Reader&, T&),
                        const std::vector<u8>& bytes) {
  Reader r{bytes};
  T value;
  fields(r, value);
  if (!r.done()) return std::nullopt;
  return value;
}

/// The envelope around every fabric stream message — KFFR status frames
/// and KFNM network messages: magic | u32 len | payload | fnv1a(payload).
/// A payload's first byte is its type.
inline std::vector<u8> seal(u32 magic, const std::vector<u8>& payload) {
  std::vector<u8> out;
  out.reserve(payload.size() + 16);
  put32(out, magic);
  put32(out, static_cast<u32>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  put64(out, fnv1a(payload.data(), payload.size()));
  return out;
}

/// Incremental envelope decoder over a byte stream: feed() appends raw
/// bytes (split or coalesced anyhow), next() pops the earliest complete
/// payload, or nullopt while the buffer holds only part of one.  Bad
/// magic, an empty payload, one longer than `max_len(type)` (checked as
/// soon as the type byte arrives, so a peer cannot make the reader buffer
/// an over-long message) or a checksum mismatch latch corrupted().
class Unsealer {
 public:
  explicit Unsealer(u32 magic) : magic_(magic) {}

  void feed(const u8* data, size_t size) {
    // Compact the consumed prefix before growing, so a long-lived stream
    // doesn't accumulate every message it ever saw.
    if (pos_ > 0 && pos_ == buf_.size()) {
      buf_.clear();
      pos_ = 0;
    } else if (pos_ > 65536) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
      pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + size);
  }

  std::optional<std::vector<u8>> next(u32 (*max_len)(u8 type)) {
    if (corrupted_) return std::nullopt;
    Reader c{buf_, pos_};
    if (!c.have(8)) return std::nullopt;  // need magic + length
    const u32 magic = c.get32();
    const u32 len = c.get32();
    if (magic != magic_ || len < 1) {
      corrupted_ = true;
      return std::nullopt;
    }
    if (!c.have(1)) return std::nullopt;  // the type byte sets the limit
    if (len > max_len(buf_[c.pos])) {
      corrupted_ = true;
      return std::nullopt;
    }
    if (!c.have(len + 8)) return std::nullopt;  // partial message: wait
    const size_t payload_at = c.pos;
    c.pos += len;
    if (c.get64() != fnv1a(buf_.data() + payload_at, len)) {
      corrupted_ = true;
      return std::nullopt;
    }
    pos_ = c.pos;
    return std::vector<u8>(buf_.begin() + static_cast<long>(payload_at),
                           buf_.begin() + static_cast<long>(payload_at + len));
  }

  bool corrupted() const { return corrupted_; }
  void corrupt() { corrupted_ = true; }

 private:
  u32 magic_;
  std::vector<u8> buf_;
  size_t pos_ = 0;  // consumed prefix, compacted lazily
  bool corrupted_ = false;
};

}  // namespace kfi::fabric::codec
