// kfi_campaignd: long-running campaign daemon, one host of a multi-host
// fabric.
//
//   kfi_campaignd --port P [--bind ADDR] [--dir DIR] [--port-file PATH]
//                 [--verbose]
//
// The daemon binds a TCP port (0 = ephemeral; --port-file publishes the
// bound port for scripts) and serves campaign shard submissions forever:
// each accepted connection is one session (net.hpp's KFNM protocol).
// A session decodes the kSubmit and hands it to the ShardRunner
// (fabric/runner.hpp), which rebuilds the plan and refuses — typed,
// before any injection — on protocol or plan-fingerprint skew or a
// malformed submission.  Accepted shards run against a LOCAL journal
// under --dir (named by plan fingerprint + shard), so a daemon that is
// kill -9ed loses wall-clock only: the next submission with fresh=false
// resumes the journal and already-completed indices never re-execute.
//
// While running, the session streams KFFR status frames inside kStatus
// messages — heartbeats renew the client's lease, progress frames carry
// the live outcome tally.  On completion the shard journal is streamed
// back byte-for-byte (kJournal).  A client that vanishes mid-run fails
// the next frame's socket probe or send, which cancels the engine at the
// next injection boundary with the journal flushed.
//
// SIGTERM/SIGINT drain: stop accepting, let in-flight sessions finish,
// then exit 0.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "fabric/net.hpp"
#include "fabric/runner.hpp"
#include "fabric/shard.hpp"
#include "fabric/wire.hpp"

using namespace kfi;

namespace {

std::atomic<bool> g_shutdown{false};

void on_term(int) { g_shutdown.store(true); }

bool g_verbose = false;

void logf(const char* fmt, ...) {
  if (!g_verbose) return;
  va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "campaignd: ");
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

/// One (plan fingerprint, shard) may have at most one live session: a
/// second submission for the same shard journal — e.g. after the client
/// revoked a lease the daemon outlived — is refused kBusy until the
/// first session notices the dead socket and cancels.
std::mutex g_active_mutex;
std::set<std::pair<u64, u32>> g_active;

struct ActiveKey {
  std::pair<u64, u32> key;
  bool held = false;

  bool acquire(u64 fp, u32 shard) {
    const std::lock_guard<std::mutex> lock(g_active_mutex);
    key = {fp, shard};
    held = g_active.insert(key).second;
    return held;
  }
  void release() {
    if (!held) return;
    const std::lock_guard<std::mutex> lock(g_active_mutex);
    g_active.erase(key);
    held = false;
  }
  ~ActiveKey() { release(); }
};

/// Wait for the client's kSubmit on a fresh connection; nullopt when the
/// client goes away first.  Bounded: a connection that stays silent is
/// dropped so a draining daemon never wedges on it.  Anything but a
/// decodable submit is refused kBadRequest (ShardError).
std::optional<fabric::SubmitRequest> read_submit(int fd) {
  fabric::MsgReader reader;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline && !g_shutdown.load()) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 500);
    if (rc < 0 && errno != EINTR) return std::nullopt;
    if (rc <= 0) continue;
    u8 buf[65536];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    reader.feed(buf, static_cast<size_t>(n));
    if (auto msg = reader.next()) {
      auto req = msg->type == fabric::MsgType::kSubmit
                     ? fabric::decode_submit(msg->body)
                     : std::nullopt;
      if (!req) {
        throw fabric::ShardError(fabric::RefuseCode::kBadRequest,
                                 "expected a decodable submit message");
      }
      return req;
    }
    if (reader.corrupted()) {
      throw fabric::ShardError(fabric::RefuseCode::kBadRequest,
                               "corrupt message stream");
    }
  }
  return std::nullopt;
}

/// A client that closed its end (lease revoked, Ctrl-C, crash) reads as
/// EOF or an error here; EAGAIN means it is still there.
bool client_alive(int fd) {
  char probe;
  const ssize_t r = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  return r > 0 || (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                             errno == EINTR));
}

void serve_session(int fd, const std::string& dir) {
  const struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  try {
    auto req = read_submit(fd);
    if (!req) return;
    // Knobs a client left at zero get the daemon's defaults.
    if (req->jobs == 0) req->jobs = 1;
    if (req->retries == 0) req->retries = 1;
    if (req->heartbeat_seconds <= 0.0) req->heartbeat_seconds = 1.0;
    const u32 shard = req->shard, shards = req->shards;
    const bool fresh = req->fresh;

    // Plan building is deterministic, so the fingerprint handshake
    // catches any skew between client and daemon binaries before the
    // first injection.
    fabric::ShardRunner runner(std::move(*req));
    const u64 plan_fp = runner.plan_fingerprint();
    ActiveKey active;
    if (!active.acquire(plan_fp, shard)) {
      throw fabric::ShardError(fabric::RefuseCode::kBusy,
                               "shard " + std::to_string(shard) +
                                   " of this plan already has a live session");
    }

    const std::string fp_hex = fabric::fingerprint_hex(plan_fp);
    const std::string journal_path =
        fabric::shard_journal_path(dir + "/" + fp_hex, shard, shards);
    fabric::AcceptInfo info;
    info.plan_fingerprint = plan_fp;
    info.resumed = runner.open_journal(journal_path);
    info.pid = static_cast<u32>(::getpid());
    if (!fabric::send_message(fd, fabric::NetMessage{
                                      fabric::MsgType::kAccept,
                                      fabric::encode_accept(info)})) {
      return;
    }
    logf("accepted plan %s shard %u/%u (%u resumed%s)", fp_hex.c_str(), shard,
         shards, info.resumed, fresh ? ", fresh" : "");

    // Every frame probes the client first: a vanished client fails the
    // sink, which cancels the engine at the next injection boundary with
    // the journal flushed for the re-dispatch.
    const bool done = runner.run([fd](const fabric::StatusFrame& f) {
      return client_alive(fd) &&
             fabric::send_message(
                 fd, fabric::NetMessage{fabric::MsgType::kStatus,
                                        fabric::encode_frame(f)});
    });
    if (!done) {
      logf("session for shard %u cancelled (client gone); journal kept",
           shard);
      return;
    }

    // Stream the completed shard journal back byte-for-byte; the client
    // splices it with the other shards.  The shard is released first, so
    // a client that resubmits the moment it has the journal is not
    // refused kBusy.
    std::ifstream in(journal_path, std::ios::binary);
    std::vector<u8> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    active.release();
    fabric::send_message(
        fd, fabric::NetMessage{fabric::MsgType::kJournal, std::move(bytes)});
    logf("shard %u complete, journal streamed (%s)", shard,
         journal_path.c_str());
  } catch (const fabric::ShardError& e) {
    fabric::Refusal r;
    r.code = e.code;
    r.reason = e.what();
    fabric::send_message(fd, fabric::NetMessage{fabric::MsgType::kRefuse,
                                                fabric::encode_refusal(r)});
    logf("refused: %s", e.what());
  } catch (const std::exception& e) {
    fabric::StatusFrame f;
    f.type = fabric::FrameType::kError;
    f.message = e.what();
    fabric::send_message(fd, fabric::NetMessage{fabric::MsgType::kStatus,
                                                fabric::encode_frame(f)});
    logf("session error: %s", e.what());
  }
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port P [--bind ADDR] [--dir DIR]\n"
               "          [--port-file PATH] [--verbose]\n"
               "  --port P:      TCP port to listen on (0 = ephemeral)\n"
               "  --bind ADDR:   bind address (default 127.0.0.1)\n"
               "  --dir DIR:     shard journal directory (default .)\n"
               "  --port-file F: write the bound port to F (for scripts\n"
               "                 using --port 0)\n"
               "  --verbose:     narrate sessions to stderr\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string bind_addr = "127.0.0.1", dir = ".", port_file;
  u16 port = 0;
  bool have_port = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      const unsigned long v = std::strtoul(next(), nullptr, 10);
      if (v > 65535) {
        usage(argv[0]);
        return 2;
      }
      port = static_cast<u16>(v);
      have_port = true;
    } else if (arg == "--bind") {
      bind_addr = next();
    } else if (arg == "--dir") {
      dir = next();
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--verbose") {
      g_verbose = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (!have_port) {
    usage(argv[0]);
    return 2;
  }

  // A vanished client must surface as a failed send, not a fatal signal.
  ::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa{};
  sa.sa_handler = on_term;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::string err;
  const int listen_fd = fabric::tcp_listen(bind_addr, port, &err);
  if (listen_fd < 0) {
    std::fprintf(stderr, "campaignd: %s\n", err.c_str());
    return 1;
  }
  const u16 bound = fabric::local_port(listen_fd);
  if (!port_file.empty()) {
    std::ofstream f(port_file, std::ios::trunc);
    f << bound << "\n";
  }
  std::fprintf(stderr, "campaignd: listening on %s:%u (journals in %s)\n",
               bind_addr.c_str(), bound, dir.c_str());

  // One thread per session; the accept loop reaps finished ones as it
  // goes — the daemon serves many campaigns over its life.
  std::vector<std::future<void>> sessions;
  while (!g_shutdown.load()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0 && errno != EINTR) {
      std::fprintf(stderr, "campaignd: poll failed: %s\n",
                   std::strerror(errno));
      break;
    }
    std::erase_if(sessions, [](const std::future<void>& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    if (rc <= 0) continue;
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "campaignd: accept failed: %s\n",
                   std::strerror(errno));
      break;
    }
    sessions.push_back(std::async(std::launch::async, serve_session, fd, dir));
  }

  // SIGTERM drain: stop accepting, let in-flight shards finish (their
  // journals flush as they go either way).
  ::close(listen_fd);
  std::fprintf(stderr, "campaignd: draining %zu session(s)\n",
               sessions.size());
  sessions.clear();  // each future's destructor waits for its session
  return 0;
}
