// Fabric wire protocol: the spec blob must carry every
// determinism-relevant campaign input bit-exactly (a worker rebuilds the
// plan from it), and status frames must survive arbitrary pipe
// fragmentation while refusing corruption loudly.
#include <gtest/gtest.h>

#include <algorithm>

#include "fabric/codec.hpp"
#include "fabric/wire.hpp"

namespace kfi::fabric {
namespace {

inject::CampaignSpec full_spec() {
  inject::CampaignSpec spec;
  spec.arch = isa::Arch::kRiscf;
  spec.kind = inject::CampaignKind::kCode;
  spec.injections = 123;
  spec.seed = 0xDEADBEEFCAFEull;
  spec.workload_scale = 3;
  spec.channel_loss = 0.0625;
  spec.budget_factor = 2.5;
  spec.machine.timer_period = 5000;
  spec.machine.user_cycles_mean = 777;
  spec.machine.g4_stack_wrapper = false;
  spec.machine.p4_stack_limit_check = true;
  spec.machine.spinlock_debug = false;
  spec.machine.seed = 99;
  spec.machine.fast_reboot = false;
  spec.machine.superblock = true;
  spec.model.shape = inject::FaultShape::kOpclass;
  spec.model.trigger = inject::FaultTrigger::kRate;
  spec.model.bits = 2;
  spec.model.burst_span = 4;
  spec.model.rate = 1.5;
  spec.model.opclass = isa::OpClass::kBranch;
  return spec;
}

TEST(SpecBlob, RoundTripPreservesEveryField) {
  const inject::CampaignSpec spec = full_spec();
  const auto back = deserialize_campaign_spec(serialize_campaign_spec(spec));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->arch, spec.arch);
  EXPECT_EQ(back->kind, spec.kind);
  EXPECT_EQ(back->injections, spec.injections);
  EXPECT_EQ(back->seed, spec.seed);
  EXPECT_EQ(back->workload_scale, spec.workload_scale);
  EXPECT_EQ(back->channel_loss, spec.channel_loss);
  EXPECT_EQ(back->budget_factor, spec.budget_factor);
  EXPECT_EQ(back->machine.timer_period, spec.machine.timer_period);
  EXPECT_EQ(back->machine.user_cycles_mean, spec.machine.user_cycles_mean);
  EXPECT_EQ(back->machine.g4_stack_wrapper, spec.machine.g4_stack_wrapper);
  EXPECT_EQ(back->machine.p4_stack_limit_check,
            spec.machine.p4_stack_limit_check);
  EXPECT_EQ(back->machine.spinlock_debug, spec.machine.spinlock_debug);
  EXPECT_EQ(back->machine.seed, spec.machine.seed);
  EXPECT_EQ(back->machine.fast_reboot, spec.machine.fast_reboot);
  EXPECT_EQ(back->machine.superblock, spec.machine.superblock);
  EXPECT_EQ(back->model.shape, spec.model.shape);
  EXPECT_EQ(back->model.trigger, spec.model.trigger);
  EXPECT_EQ(back->model.bits, spec.model.bits);
  EXPECT_EQ(back->model.burst_span, spec.model.burst_span);
  EXPECT_EQ(back->model.rate, spec.model.rate);
  EXPECT_EQ(back->model.opclass, spec.model.opclass);
}

TEST(SpecBlob, ErrnoModelRoundTrips) {
  inject::CampaignSpec spec;
  spec.kind = inject::CampaignKind::kErrno;
  spec.errno_model.syscalls = 0b101;
  spec.errno_model.value = errnoinj::ErrnoValue::kDrawnNegative;
  spec.errno_model.trigger = errnoinj::ErrnoTrigger::kRate;
  spec.errno_model.nth = 9;
  spec.errno_model.rate = 0.75;
  const auto back = deserialize_campaign_spec(serialize_campaign_spec(spec));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->errno_model.syscalls, spec.errno_model.syscalls);
  EXPECT_EQ(back->errno_model.value, spec.errno_model.value);
  EXPECT_EQ(back->errno_model.trigger, spec.errno_model.trigger);
  EXPECT_EQ(back->errno_model.nth, spec.errno_model.nth);
  EXPECT_EQ(back->errno_model.rate, spec.errno_model.rate);
}

TEST(SpecBlob, EveryTruncationAndTrailingByteRejected) {
  const std::vector<u8> blob = serialize_campaign_spec(full_spec());
  for (size_t len = 0; len < blob.size(); ++len) {
    const std::vector<u8> cut(blob.begin(),
                              blob.begin() + static_cast<long>(len));
    EXPECT_FALSE(deserialize_campaign_spec(cut).has_value())
        << "prefix " << len;
  }
  std::vector<u8> padded = blob;
  padded.push_back(0);
  EXPECT_FALSE(deserialize_campaign_spec(padded).has_value());
}

/// A current blob rebuilt in an older layout, with its removed
/// machine-option bytes set: version 2 carried the copy-on-write byte
/// after the superblock byte, and version 1 also the decode-cache byte
/// right after the machine seed.
std::vector<u8> older_layout_blob(u8 version) {
  inject::CampaignSpec spec = full_spec();
  spec.machine.seed = 0x5EED5EED5EED5EEDull;
  const std::vector<u8> blob = serialize_campaign_spec(spec);
  std::vector<u8> seed;
  codec::put64(seed, spec.machine.seed);
  const auto at = std::search(blob.begin(), blob.end(), seed.begin(),
                              seed.end());
  if (at == blob.end()) {
    ADD_FAILURE() << "machine seed not found in the blob";
    return {};
  }
  const auto after_seed = at + 8;
  std::vector<u8> old(blob.begin(), after_seed);
  if (version == 1) old.push_back(1);  // decode cache
  old.insert(old.end(), after_seed, after_seed + 2);  // reboot, superblock
  old.push_back(1);  // copy-on-write
  old.insert(old.end(), after_seed + 2, blob.end());
  old[0] = version;
  return old;
}

/// A worker must refuse an older blob rather than read every later field
/// a byte or two off.  The version byte alone decides: the current layout
/// labelled with the old version fails too.
void expect_version_refused(u8 version) {
  EXPECT_FALSE(deserialize_campaign_spec(older_layout_blob(version)));
  std::vector<u8> relabelled = serialize_campaign_spec(full_spec());
  relabelled[0] = version;
  EXPECT_FALSE(deserialize_campaign_spec(relabelled).has_value());
}

TEST(SpecBlob, VersionOneBlobRefused) { expect_version_refused(1); }

TEST(SpecBlob, VersionTwoBlobRefused) { expect_version_refused(2); }

TEST(SpecBlob, CorruptEnumsRejected) {
  std::vector<u8> blob = serialize_campaign_spec(full_spec());
  blob[1] = 0xFF;  // arch
  EXPECT_FALSE(deserialize_campaign_spec(blob).has_value());
  blob = serialize_campaign_spec(full_spec());
  blob[2] = 0xFF;  // campaign kind
  EXPECT_FALSE(deserialize_campaign_spec(blob).has_value());
}

TEST(Hex, RoundTripAndRejection) {
  const std::vector<u8> bytes = {0x00, 0xAB, 0xFF, 0x10};
  EXPECT_EQ(to_hex(bytes), "00abff10");
  EXPECT_EQ(from_hex("00abff10"), bytes);
  EXPECT_EQ(from_hex("00ABFF10"), bytes);  // case-insensitive
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // bad digit
  EXPECT_EQ(from_hex(""), std::vector<u8>{});  // empty is legal
}

StatusFrame full_frame() {
  StatusFrame f;
  f.type = FrameType::kDone;
  f.plan_fingerprint = 0xAB480E702F164E0Eull;
  f.shard = 3;
  f.pid = 4242;
  f.done = 15;
  f.total = 16;
  f.outcomes = {4, 3, 1, 5, 2, 1};  // one count per OutcomeCategory
  f.executed = 12;
  f.quarantined = 1;
  f.stalls = 2;
  f.harness_retries = 3;
  f.backoff_waits = 4;
  f.backoff_seconds = 0.125;
  f.message = "shard complete";
  return f;
}

void expect_frames_equal(const StatusFrame& a, const StatusFrame& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.plan_fingerprint, b.plan_fingerprint);
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_EQ(a.pid, b.pid);
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.stalls, b.stalls);
  EXPECT_EQ(a.harness_retries, b.harness_retries);
  EXPECT_EQ(a.backoff_waits, b.backoff_waits);
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds);
  EXPECT_EQ(a.message, b.message);
}

TEST(FrameReader, DecodesWholeFrames) {
  const StatusFrame frame = full_frame();
  const std::vector<u8> bytes = encode_frame(frame);
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  const auto back = reader.next();
  ASSERT_TRUE(back.has_value());
  expect_frames_equal(frame, *back);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.corrupted());
}

TEST(FrameReader, SurvivesByteAtATimeFragmentation) {
  // A pipe may deliver a frame in any fragmentation; feed the worst case.
  std::vector<u8> stream;
  for (int i = 0; i < 3; ++i) {
    StatusFrame f = full_frame();
    f.done = static_cast<u32>(i);
    const auto bytes = encode_frame(f);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  FrameReader reader;
  u32 decoded = 0;
  for (const u8 byte : stream) {
    reader.feed(&byte, 1);
    while (const auto f = reader.next()) {
      EXPECT_EQ(f->done, decoded);
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, 3u);
  EXPECT_FALSE(reader.corrupted());
}

TEST(FrameReader, FlagsCorruptMagicAndChecksum) {
  {
    FrameReader reader;
    const u8 garbage[] = {'n', 'o', 'p', 'e', 0, 0, 0, 0};
    reader.feed(garbage, sizeof(garbage));
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.corrupted());
  }
  {
    std::vector<u8> bytes = encode_frame(full_frame());
    bytes.back() ^= 1;  // break the checksum
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.corrupted());
  }
}

}  // namespace
}  // namespace kfi::fabric
