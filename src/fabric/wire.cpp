#include "fabric/wire.hpp"

#include <cstring>

#include "fabric/codec.hpp"

namespace kfi::fabric {

namespace {

constexpr u8 kSpecVersion = 3;


/// Every plan-relevant CampaignSpec field, in wire order.
template <typename IO, typename Spec>
void spec_fields(IO& io, Spec& spec) {
  u8 version = kSpecVersion;
  io(version, kSpecVersion, kSpecVersion);
  io(spec.arch, isa::Arch::kCisca, isa::Arch::kRiscf);
  io(spec.kind, inject::CampaignKind::kStack, inject::CampaignKind::kErrno);
  io(spec.injections);
  io(spec.seed);
  io(spec.workload_scale);
  io(spec.channel_loss);
  io(spec.budget_factor);
  auto& m = spec.machine;
  io(m.timer_period);
  io(m.user_cycles_mean);
  io(m.g4_stack_wrapper);
  io(m.p4_stack_limit_check);
  io(m.spinlock_debug);
  io(m.seed);
  io(m.fast_reboot);
  io(m.superblock);
  auto& f = spec.model;
  io(f.shape, inject::FaultShape::kSingleBit, inject::FaultShape::kOpclass);
  io(f.trigger, inject::FaultTrigger::kSingleShot, inject::FaultTrigger::kRate);
  io(f.bits);
  io(f.burst_span);
  io(f.rate);
  io(f.opclass, isa::OpClass::kAlu, isa::OpClass::kOther);
  auto& e = spec.errno_model;
  io(e.syscalls);
  io(e.value, errnoinj::ErrnoValue::kErrReturn,
     errnoinj::ErrnoValue::kDrawnNegative);
  io(e.trigger, errnoinj::ErrnoTrigger::kNth, errnoinj::ErrnoTrigger::kRate);
  io(e.nth);
  io(e.rate);
}

template <typename IO, typename Frame>
void frame_fields(IO& io, Frame& frame) {
  io(frame.type, FrameType::kHello, FrameType::kError);
  io(frame.plan_fingerprint);
  io(frame.shard);
  io(frame.pid);
  io(frame.done);
  io(frame.total);
  for (auto& n : frame.outcomes) io(n);
  io(frame.executed);
  io(frame.quarantined);
  io(frame.stalls);
  io(frame.harness_retries);
  io(frame.backoff_waits);
  io(frame.backoff_seconds);
  io(frame.message);
}

static_assert(kFrameOutcomeSlots ==
                  static_cast<size_t>(inject::OutcomeCategory::kNumOutcomes),
              "StatusFrame outcome slots must cover every OutcomeCategory");

}  // namespace

std::vector<u8> serialize_campaign_spec(const inject::CampaignSpec& spec) {
  return codec::encode(spec_fields<codec::Writer, const inject::CampaignSpec>,
                       spec);
}

std::optional<inject::CampaignSpec> deserialize_campaign_spec(
    const std::vector<u8>& in) {
  return codec::decode(spec_fields<codec::Reader, inject::CampaignSpec>, in);
}

std::string to_hex(const std::vector<u8>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const u8 b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

std::string fingerprint_hex(u64 fingerprint) {
  std::vector<u8> bytes;
  codec::put64(bytes, fingerprint);
  return to_hex(bytes);
}

std::optional<std::vector<u8>> from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::vector<u8> out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<u8>((hi << 4) | lo));
  }
  return out;
}

std::vector<u8> encode_frame(const StatusFrame& frame) {
  return codec::seal(
      kFrameMagic,
      codec::encode(frame_fields<codec::Writer, const StatusFrame>, frame));
}

void FrameReader::feed(const u8* data, size_t size) {
  frames_.feed(data, size);
}

std::optional<StatusFrame> FrameReader::next() {
  // No legitimate frame is a megabyte.
  const auto payload = frames_.next([](u8) { return 1u << 20; });
  if (!payload) return std::nullopt;
  auto frame =
      codec::decode(frame_fields<codec::Reader, StatusFrame>, *payload);
  if (!frame) frames_.corrupt();
  return frame;
}

}  // namespace kfi::fabric
