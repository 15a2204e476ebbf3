#include "fabric/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "fabric/codec.hpp"

namespace kfi::fabric {

namespace {

// Journal blobs dominate message size; a 16-record shard is a few KB and
// even a million-record shard stays far under this.
constexpr u32 kMaxMsgLen = 256u << 20;
// Every other message is control traffic (the largest, kSubmit, carries a
// spec blob and an index range list), so a peer cannot make the reader
// buffer more than this before it has sent a single complete message.
constexpr u32 kMaxControlMsgLen = 1u << 20;

using codec::put8;

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Hand the whole buffer to `put` (write(2) or send(2)), retrying short
/// writes and EINTR.
template <typename Put>
bool put_all(const void* data, size_t size, Put put) {
  const u8* p = static_cast<const u8*>(data);
  while (size > 0) {
    const ssize_t n = put(p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

template <typename IO, typename Req>
void submit_fields(IO& io, Req& req) {
  io(req.protocol);
  io(req.expect_plan_fp);
  io(req.shard);
  io(req.shards);
  io(req.fresh);
  io(req.jobs);
  io(req.retries);
  io(req.heartbeat_seconds);
  io(req.stall_seconds);
  io(req.flush);
  io(req.indices);
  io(req.spec);
}

template <typename IO, typename Info>
void accept_fields(IO& io, Info& info) {
  io(info.plan_fingerprint);
  io(info.resumed);
  io(info.pid);
}

template <typename IO, typename R>
void refusal_fields(IO& io, R& refusal) {
  io(refusal.code, RefuseCode::kSkew, RefuseCode::kBadRequest);
  io(refusal.reason);
}

}  // namespace

bool write_all(int fd, const void* data, size_t size) {
  return put_all(data, size,
                 [fd](const u8* p, size_t n) { return ::write(fd, p, n); });
}

bool send_all(int fd, const void* data, size_t size) {
  return put_all(data, size, [fd](const u8* p, size_t n) {
    return ::send(fd, p, n, MSG_NOSIGNAL);
  });
}

bool read_exact(int fd, void* data, size_t size) {
  u8* p = static_cast<u8*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF mid-read
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

int tcp_listen(const std::string& bind_addr, u16 port, std::string* err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (err != nullptr) *err = errno_text("socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    if (err != nullptr) *err = "bad bind address '" + bind_addr + "'";
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (err != nullptr) *err = errno_text("bind");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 16) != 0) {
    if (err != nullptr) *err = errno_text("listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

u16 local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

int tcp_connect(const std::string& host, u16 port, double timeout_seconds,
                std::string* err) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int gai = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (gai != 0 || res == nullptr) {
    if (err != nullptr) {
      *err = "cannot resolve '" + host + "': " + ::gai_strerror(gai);
    }
    return -1;
  }
  int fd = -1;
  std::string last_err = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) {
      last_err = errno_text("socket");
      continue;
    }
    // Non-blocking connect so a black-holed host costs `timeout_seconds`,
    // not the kernel's multi-minute SYN retry budget.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      const int timeout_ms =
          timeout_seconds > 0.0 ? static_cast<int>(timeout_seconds * 1000.0)
                                : -1;
      do {
        rc = ::poll(&pfd, 1, timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc <= 0) {
        last_err = rc == 0 ? "connect timed out" : errno_text("poll");
        ::close(fd);
        fd = -1;
        continue;
      }
      int so_err = 0;
      socklen_t len = sizeof(so_err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_err, &len);
      if (so_err != 0) {
        last_err = std::string("connect: ") + std::strerror(so_err);
        ::close(fd);
        fd = -1;
        continue;
      }
    } else if (rc != 0) {
      last_err = errno_text("connect");
      ::close(fd);
      fd = -1;
      continue;
    }
    ::fcntl(fd, F_SETFL, flags);  // back to blocking
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    break;
  }
  ::freeaddrinfo(res);
  if (fd < 0 && err != nullptr) {
    *err = "connect to " + host + ":" + service + " failed: " + last_err;
  }
  return fd;
}

std::vector<u8> encode_message(const NetMessage& msg) {
  std::vector<u8> payload;
  payload.reserve(msg.body.size() + 1);
  put8(payload, static_cast<u8>(msg.type));
  payload.insert(payload.end(), msg.body.begin(), msg.body.end());
  return codec::seal(kMsgMagic, payload);
}

bool send_message(int fd, const NetMessage& msg) {
  const std::vector<u8> bytes = encode_message(msg);
  return send_all(fd, bytes.data(), bytes.size());
}

void MsgReader::feed(const u8* data, size_t size) { msgs_.feed(data, size); }

std::optional<NetMessage> MsgReader::next() {
  auto payload = msgs_.next([](u8 type) {
    return type == static_cast<u8>(MsgType::kJournal) ? kMaxMsgLen
                                                       : kMaxControlMsgLen;
  });
  if (!payload) return std::nullopt;
  const u8 type = payload->front();
  if (type < static_cast<u8>(MsgType::kSubmit) ||
      type > static_cast<u8>(MsgType::kJournal)) {
    msgs_.corrupt();
    return std::nullopt;
  }
  payload->erase(payload->begin());
  return NetMessage{static_cast<MsgType>(type), std::move(*payload)};
}

std::vector<u8> encode_submit(const SubmitRequest& req) {
  return codec::encode(submit_fields<codec::Writer, const SubmitRequest>, req);
}

std::optional<SubmitRequest> decode_submit(const std::vector<u8>& body) {
  return codec::decode(submit_fields<codec::Reader, SubmitRequest>, body);
}

std::vector<u8> encode_accept(const AcceptInfo& info) {
  return codec::encode(accept_fields<codec::Writer, const AcceptInfo>, info);
}

std::optional<AcceptInfo> decode_accept(const std::vector<u8>& body) {
  return codec::decode(accept_fields<codec::Reader, AcceptInfo>, body);
}

std::vector<u8> encode_refusal(const Refusal& refusal) {
  return codec::encode(refusal_fields<codec::Writer, const Refusal>, refusal);
}

std::optional<Refusal> decode_refusal(const std::vector<u8>& body) {
  return codec::decode(refusal_fields<codec::Reader, Refusal>, body);
}

std::optional<std::vector<HostSpec>> parse_host_list(const std::string& text) {
  std::vector<HostSpec> hosts;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    const size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= item.size()) {
      return std::nullopt;
    }
    HostSpec spec;
    spec.host = item.substr(0, colon);
    const std::string port_text = item.substr(colon + 1);
    char* end = nullptr;
    const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
      return std::nullopt;
    }
    spec.port = static_cast<u16>(port);
    hosts.push_back(std::move(spec));
    if (comma == text.size()) break;
    start = comma + 1;
  }
  if (hosts.empty()) return std::nullopt;
  return hosts;
}

}  // namespace kfi::fabric
