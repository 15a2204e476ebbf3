// Fabric network transport: the multi-host control plane.
//
// A remote campaign runs over one TCP connection per (host, shard):
//
//   client                          kfi_campaignd
//     | -- KFNM kSubmit ------------->|   protocol version + spec blob +
//     |                               |   expected plan fingerprint +
//     |                               |   index slice + engine knobs
//     | <-- KFNM kAccept / kRefuse ---|   skew refused BEFORE any injection
//     | <-- KFNM kStatus ... ---------|   body = one KFFR StatusFrame
//     |        (hello/progress/       |   (heartbeats renew the client's
//     |         heartbeat/done)       |    remote lease; progress frames
//     |                               |    carry the live outcome tally)
//     | <-- KFNM kJournal ------------|   the completed shard journal,
//     |                               |   byte-for-byte
//
// Everything on the socket is a KFNM message: length-framed and
// checksummed exactly like the KFFR status frames ("KFNM" | len |
// type+body | fnv64), decoded incrementally by MsgReader so arbitrary
// TCP segmentation is survivable and corruption is flagged loudly.
// Status traffic rides INSIDE kStatus messages as ordinary KFFR frames,
// so the single-host fabric's FrameReader and StatusFrame codec are
// reused unchanged — one status vocabulary for pipes and sockets.
//
// This header also owns the shared low-level write/read helpers: every
// fabric pipe- and socket-write path retries EINTR and short writes the
// same way the journal's appends always have.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fabric/codec.hpp"

namespace kfi::fabric {

/// write(2) the whole buffer, retrying short writes and EINTR.  Returns
/// false on any other error (e.g. EPIPE/ECONNRESET: the peer is gone).
bool write_all(int fd, const void* data, size_t size);

/// write_all for sockets: send(2) with MSG_NOSIGNAL, so a vanished peer
/// surfaces as a false return (EPIPE) instead of a SIGPIPE.  Pipes keep
/// using write_all — the single-host worker relies on the default
/// SIGPIPE disposition for orphan suicide.
bool send_all(int fd, const void* data, size_t size);

/// read(2) exactly `size` bytes, retrying short reads and EINTR.
/// Returns false on EOF or any other error before `size` bytes arrived.
bool read_exact(int fd, void* data, size_t size);

/// Bind + listen on `bind_addr:port` (port 0 = ephemeral).  Returns the
/// listening fd, or -1 with `*err` describing the failure.
int tcp_listen(const std::string& bind_addr, u16 port, std::string* err);

/// The port a listening/connected socket is actually bound to (resolves
/// an ephemeral bind); 0 on error.
u16 local_port(int fd);

/// Connect to `host:port` with a wall-clock timeout.  Returns a blocking
/// connected fd with TCP_NODELAY set, or -1 with `*err` filled.
int tcp_connect(const std::string& host, u16 port, double timeout_seconds,
                std::string* err);

/// Bumped whenever any fabric wire format changes shape.  A daemon and
/// client disagreeing on this number refuse each other up front — the
/// same version-skew stance the spec-blob fingerprint handshake takes.
constexpr u8 kNetProtocolVersion = 1;

enum class MsgType : u8 {
  kSubmit = 1,   // client -> daemon: run one shard of a campaign
  kAccept = 2,   // daemon -> client: plan rebuilt, fingerprints agree
  kRefuse = 3,   // daemon -> client: typed refusal, nothing was run
  kStatus = 4,   // daemon -> client: one KFFR StatusFrame as the body
  kJournal = 5,  // daemon -> client: completed shard journal bytes
};

constexpr u32 kMsgMagic = 0x4B464E4D;  // "KFNM"

struct NetMessage {
  MsgType type = MsgType::kStatus;
  std::vector<u8> body;
};

std::vector<u8> encode_message(const NetMessage& msg);

/// encode_message + write_all in one step.
bool send_message(int fd, const NetMessage& msg);

/// Incremental KFNM decoder, same contract as wire.hpp's FrameReader:
/// feed() raw socket bytes, next() pops complete messages, corruption
/// (bad magic, bad checksum, unknown type, absurd length) latches
/// corrupted() and the peer should be dropped.  Only kJournal may be
/// longer than 1 MiB (up to 256 MiB); an over-long header of any other
/// type is refused as soon as its type byte arrives.
class MsgReader {
 public:
  void feed(const u8* data, size_t size);
  std::optional<NetMessage> next();
  bool corrupted() const { return msgs_.corrupted(); }

 private:
  codec::Unsealer msgs_{kMsgMagic};
};

/// Why a daemon refused a submission.  kSkew and kBadRequest are hard
/// configuration errors (the client aborts with a typed FabricError
/// before any injection runs anywhere); kBusy is transient — the shard
/// is already being run by a live session, retry after a backoff.
enum class RefuseCode : u8 {
  kSkew = 1,        // protocol version or plan fingerprint mismatch
  kBusy = 2,        // this (plan, shard) already has a live session
  kBadRequest = 3,  // malformed submission
};

struct SubmitRequest {
  u8 protocol = kNetProtocolVersion;
  u64 expect_plan_fp = 0;  // daemon refuses if its rebuilt plan differs
  u32 shard = 0;
  u32 shards = 1;
  /// Fresh run: drop any existing daemon-side journal for this
  /// (plan, shard) before running.  Re-dispatches and --resume send
  /// false, so a restarted daemon resumes its local journal and the
  /// dead host's completed indices are never re-executed.
  bool fresh = false;
  u32 jobs = 1;
  u32 retries = 1;
  double heartbeat_seconds = 1.0;
  double stall_seconds = 0.0;
  u8 flush = 0;  // inject::FlushPolicy byte
  std::string indices;  // shard.hpp range format
  std::vector<u8> spec;  // wire.hpp CampaignSpec blob
};

std::vector<u8> encode_submit(const SubmitRequest& req);
std::optional<SubmitRequest> decode_submit(const std::vector<u8>& body);

struct AcceptInfo {
  u64 plan_fingerprint = 0;
  u32 resumed = 0;  // slice indices already covered by the local journal
  u32 pid = 0;      // daemon pid (diagnostics)
};

std::vector<u8> encode_accept(const AcceptInfo& info);
std::optional<AcceptInfo> decode_accept(const std::vector<u8>& body);

struct Refusal {
  RefuseCode code = RefuseCode::kBadRequest;
  std::string reason;
};

std::vector<u8> encode_refusal(const Refusal& refusal);
std::optional<Refusal> decode_refusal(const std::vector<u8>& body);

/// One "host:port" endpoint of a campaign fabric.
struct HostSpec {
  std::string host;
  u16 port = 0;

  std::string label() const { return host + ":" + std::to_string(port); }
};

/// Parse "host1:port1,host2:port2".  Returns nullopt on malformed text,
/// an empty element, or an out-of-range port.
std::optional<std::vector<HostSpec>> parse_host_list(const std::string& text);

}  // namespace kfi::fabric
