#include "fabric/remote.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "fabric/shard.hpp"

namespace kfi::fabric {

namespace {

/// Atomically land the retrieved journal bytes: a torn write must never
/// masquerade as a complete shard journal.
void write_journal_bytes(const std::string& path, const std::vector<u8>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw FabricError("cannot write retrieved journal " + tmp);
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) {
      throw FabricError("short write retrieving journal " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw FabricError("cannot rename " + tmp + " into place: " +
                      std::strerror(errno));
  }
}

/// One KFNM session with a daemon running one dispatch.
class TcpSession final : public Session {
 public:
  TcpSession(int fd, const Dispatch& d, const std::string& host, bool verbose)
      : fd_(fd), journal_(d.journal), host_(host),
        verbose_(verbose) {}
  ~TcpSession() override { ::close(fd_); }

  int fd() const override { return fd_; }

  std::optional<SessionEnd> pump(
      const std::function<void(const StatusFrame&)>& on_frame) override {
    u8 buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n == 0) return SessionEnd{false, "connection closed"};
    if (n < 0) {
      if (errno == EINTR) return std::nullopt;
      return SessionEnd{false, "read failed"};
    }
    msgs_.feed(buf, static_cast<size_t>(n));
    while (auto msg = msgs_.next()) {
      switch (msg->type) {
        case MsgType::kAccept: {
          const auto info = decode_accept(msg->body);
          if (!info) return SessionEnd{false, "malformed accept"};
          if (verbose_ && info->resumed > 0) {
            std::fprintf(stderr,
                         "fabric: host %s resumed %u journaled indices\n",
                         host_.c_str(), info->resumed);
          }
          break;
        }
        case MsgType::kRefuse: {
          const auto refusal = decode_refusal(msg->body);
          if (!refusal) return SessionEnd{false, "malformed refusal"};
          if (refusal->code == RefuseCode::kBusy) {
            // Transient: the daemon still runs a prior session for this
            // shard (e.g. after a lease revocation the daemon outlived).
            return SessionEnd{false, "daemon busy, will retry"};
          }
          // kSkew / kBadRequest: hard configuration error, typed, raised
          // before any injection ran anywhere.
          throw FabricError(
              "daemon " + host_ + " refused (" +
              (refusal->code == RefuseCode::kSkew ? "version/plan skew"
                                                  : "bad request") +
              "): " + refusal->reason);
        }
        case MsgType::kStatus:
          frames_.feed(msg->body.data(), msg->body.size());
          while (auto frame = frames_.next()) on_frame(*frame);
          if (frames_.corrupted()) {
            return SessionEnd{false, "corrupt status frame"};
          }
          break;
        case MsgType::kJournal:
          write_journal_bytes(journal_, msg->body);
          return SessionEnd{true, ""};
        case MsgType::kSubmit:
          return SessionEnd{false, "protocol violation (submit from daemon)"};
      }
    }
    if (msgs_.corrupted()) return SessionEnd{false, "corrupt message stream"};
    return std::nullopt;
  }

 private:
  int fd_;
  std::string journal_;
  std::string host_;
  bool verbose_;
  MsgReader msgs_;
  FrameReader frames_;
};

/// Connect to the dispatch's daemon and submit the shard's whole slice
/// (the daemon resumes its own journal); nullptr is a death.
std::unique_ptr<Session> open_tcp(const RemoteOptions& options,
                                  const Dispatch& d, std::string* why) {
  const HostSpec& host = options.hosts[d.slot];
  const int fd =
      tcp_connect(host.host, host.port, options.connect_timeout_seconds, why);
  if (fd < 0) return nullptr;
  auto session =
      std::make_unique<TcpSession>(fd, d, host.label(), options.verbose);
  SubmitRequest req;
  req.expect_plan_fp = d.plan_fp;
  req.shard = d.shard;
  req.shards = d.shards;
  req.fresh = d.fresh;
  req.jobs = options.jobs_per_host;
  req.retries = options.retries;
  req.heartbeat_seconds = options.heartbeat_seconds;
  req.stall_seconds = options.stall_seconds;
  req.flush = static_cast<u8>(options.flush);
  req.indices = format_index_ranges(d.slice);
  req.spec = serialize_campaign_spec(d.plan.spec);
  if (options.verbose) {
    std::fprintf(stderr, "fabric: host %s <- shard %u (%zu indices%s%s)\n",
                 host.label().c_str(), d.shard, d.slice.size(),
                 req.fresh ? ", fresh" : ", resume",
                 d.launches > 0 ? ", re-dispatch" : "");
  }
  if (!send_message(fd, NetMessage{MsgType::kSubmit, encode_submit(req)})) {
    *why = "submit write failed";
    return nullptr;
  }
  return session;
}

}  // namespace

RemoteCoordinator::RemoteCoordinator(RemoteOptions options, SessionOpener open)
    : Coordinator(
          [&options]() {
            if (options.hosts.empty()) {
              throw FabricError(
                  "remote fabric needs at least one --hosts endpoint");
            }
            Config c(options);
            c.noun = "host";
            for (const HostSpec& h : options.hosts) {
              c.names.push_back(h.label());
            }
            c.max_restarts = options.max_restarts_per_host;
            c.jobs_per_slot = options.jobs_per_host;
            c.local_journals = false;
            c.fresh = options.fresh;
            c.progress = options.progress;
            return c;
          }(),
          open ? std::move(open)
               : SessionOpener([options](const Dispatch& d, std::string* why) {
                   return open_tcp(options, d, why);
                 })) {}

}  // namespace kfi::fabric
