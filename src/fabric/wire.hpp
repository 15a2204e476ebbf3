// Fabric wire formats: the coordinator <-> worker control plane.
//
// Two byte formats live here, both big-endian like the journal and the
// crash datagrams:
//
//   * CampaignSpec blobs — the coordinator hands each kfi_worker its
//     campaign spec as a hex-encoded binary blob on the command line.
//     Workers rebuild the plan from the spec (plan building is
//     deterministic) and refuse to run if the rebuilt plan's fingerprint
//     differs from the one the coordinator expected, so any drift between
//     the two processes' builds is caught before the first injection.
//
//   * StatusFrames — length-framed, checksummed messages a worker writes
//     to its status pipe: HELLO when the plan is built, PROGRESS per
//     completed injection, HEARTBEAT on a wall-clock tick (so a lease
//     can outlive one long injection), DONE with the run's supervisor
//     totals, ERROR with a message on a fatal worker exception.  The
//     coordinator's FrameReader consumes the pipe incrementally: frames
//     may arrive split or coalesced, and a torn final frame (worker
//     SIGKILLed mid-write) is simply never completed — the death is
//     detected by waitpid, not by the stream.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "fabric/codec.hpp"
#include "inject/plan.hpp"

namespace kfi::fabric {

/// Serialize every plan-relevant field of a CampaignSpec (the same set
/// plan_fingerprint hashes, plus the bit-exact perf knobs so workers run
/// the same configuration they would in-process).
std::vector<u8> serialize_campaign_spec(const inject::CampaignSpec& spec);

/// Inverse of serialize_campaign_spec.  Returns nullopt on truncated
/// input or out-of-range enum bytes (never throws, never overreads).
std::optional<inject::CampaignSpec> deserialize_campaign_spec(
    const std::vector<u8>& in);

/// Lower-case hex codec for passing blobs through argv.
std::string to_hex(const std::vector<u8>& bytes);
std::optional<std::vector<u8>> from_hex(const std::string& hex);
/// A 64-bit fingerprint as 16 lower-case hex digits (journal names,
/// --expect-plan-fp, skew messages).
std::string fingerprint_hex(u64 fingerprint);

enum class FrameType : u8 {
  kHello = 1,      // plan built: fingerprint + shard + pid
  kProgress = 2,   // one more slice index completed
  kHeartbeat = 3,  // wall-clock liveness tick
  kDone = 4,       // slice finished: supervisor totals
  kError = 5,      // fatal worker error: message
};

/// Outcome-count slots carried by progress/heartbeat/done frames: one
/// per inject::OutcomeCategory, in enum order (the live tally a remote
/// coordinator renders per host).  Sized here so the wire layout is
/// explicit; wire.cpp asserts it matches the enum.
constexpr size_t kFrameOutcomeSlots = 6;

/// One decoded control-plane message.  Fields are meaningful per type
/// (unused ones stay zero); the wire layout is uniform so the codec has
/// exactly one serializer.
struct StatusFrame {
  FrameType type = FrameType::kHeartbeat;
  // kHello
  u64 plan_fingerprint = 0;
  u32 shard = 0;
  u32 pid = 0;
  // kProgress
  u32 done = 0;   // completed indices in this worker's slice (incl. resumed)
  u32 total = 0;  // slice size
  /// Live outcome tally over the slice so far (resumed + executed),
  /// indexed by inject::OutcomeCategory.  Zeroes when the sender does
  /// not track outcomes.
  std::array<u32, kFrameOutcomeSlots> outcomes{};
  // kDone
  u64 executed = 0;
  u64 quarantined = 0;
  u64 stalls = 0;
  u64 harness_retries = 0;
  u64 backoff_waits = 0;
  double backoff_seconds = 0.0;
  // kError
  std::string message;
};

constexpr u32 kFrameMagic = 0x4B464652;  // "KFFR"

std::vector<u8> encode_frame(const StatusFrame& frame);

/// Incremental frame decoder over a byte stream.  feed() appends raw pipe
/// bytes; next() pops the earliest complete frame, or nullopt while the
/// buffer holds only a partial frame.  A checksum or magic mismatch
/// latches corrupted() — the coordinator treats that worker as faulty.
class FrameReader {
 public:
  void feed(const u8* data, size_t size);
  std::optional<StatusFrame> next();
  bool corrupted() const { return frames_.corrupted(); }

 private:
  codec::Unsealer frames_{kFrameMagic};
};

}  // namespace kfi::fabric
