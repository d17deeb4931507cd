#include "dawn/net/client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <random>
#include <thread>

#include "dawn/net/server.hpp"  // parse_address

namespace dawn::net {
namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

bool set_blocking(int fd, bool blocking) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL,
               blocking ? flags & ~O_NONBLOCK : flags | O_NONBLOCK) == 0;
}

// One non-blocking connect attempt with a poll deadline; the fd comes back
// in blocking mode.
int connect_once(int family, const sockaddr_storage& sa, socklen_t sa_len,
                 std::uint64_t timeout_ms, std::string* error) {
  const int fd = socket(family, SOCK_STREAM, 0);
  if (fd < 0) {
    fail(error, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  const auto give_up = [&](const std::string& why) {
    fail(error, why);
    close(fd);
    return -1;
  };
  if (!set_blocking(fd, false)) return give_up("fcntl(O_NONBLOCK) failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sa_len) != 0) {
    if (errno != EINPROGRESS) {
      return give_up(std::string("connect: ") + std::strerror(errno));
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return give_up("connect timed out");
      pollfd p{fd, POLLOUT, 0};
      const int rc = poll(&p, 1, static_cast<int>(left.count()));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return give_up("connect timed out");
      break;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      return give_up(std::string("connect: ") +
                     std::strerror(so_error != 0 ? so_error : errno));
    }
  }
  if (!set_blocking(fd, true)) return give_up("fcntl(restore blocking) failed");
  return fd;
}

}  // namespace

int connect_with_retry(const std::string& address, const ConnectOptions& opts,
                       std::string* error) {
  sockaddr_storage sa;
  socklen_t sa_len = 0;
  const int family = parse_address(address, &sa, &sa_len, error);
  if (family == AF_UNSPEC) return -1;
  const std::uint64_t timeout =
      opts.timeout_ms == 0 ? 5'000 : opts.timeout_ms;
  const int attempts = opts.retries < 0 ? 1 : opts.retries + 1;
  // Jitter decorrelates simultaneous reconnect storms; the timing is
  // deliberately outside the determinism contract.
  std::minstd_rand rng(static_cast<std::uint32_t>(
      std::chrono::steady_clock::now().time_since_epoch().count() ^
      (std::hash<std::string>{}(address) << 1)));
  std::string last_error;
  std::uint64_t backoff = opts.backoff_ms == 0 ? 100 : opts.backoff_ms;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const std::uint64_t jittered = backoff / 2 + rng() % (backoff / 2 + 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
      backoff *= 2;
    }
    const int fd = connect_once(family, sa, sa_len, timeout, &last_error);
    if (fd >= 0) return fd;
  }
  fail(error, last_error + " (" + std::to_string(attempts) + " attempt" +
                  (attempts == 1 ? "" : "s") + " to " + address + ")");
  return -1;
}

Client::~Client() { disconnect(); }

bool Client::connect(const std::string& address, std::string* error) {
  return connect(address, ConnectOptions{}, error);
}

bool Client::connect(const std::string& address, const ConnectOptions& opts,
                     std::string* error) {
  disconnect();
  fd_ = connect_with_retry(address, opts, error);
  return fd_ >= 0;
}

void Client::disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool Client::send_raw(const std::uint8_t* data, std::size_t size,
                      std::string* error) {
  if (fd_ < 0) return fail(error, "not connected");
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = send(fd_, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail(error, std::string("write: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Client::read_frame(Frame* out, bool* closed, std::string* error,
                        std::uint64_t timeout_ms) {
  if (closed != nullptr) *closed = false;
  if (fd_ < 0) return fail(error, "not connected");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    if (reader_.next(out)) return true;
    if (reader_.error() != WireError::None) {
      return fail(error, std::string("reader error: ") + name(reader_.error()));
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return fail(error, "timeout waiting for frame");
    pollfd p{fd_, POLLIN, 0};
    const int rc = poll(&p, 1, static_cast<int>(left.count()));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return fail(error, std::string("poll: ") + std::strerror(errno));
    }
    if (rc == 0) return fail(error, "timeout waiting for frame");
    char buf[16 * 1024];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return fail(error, std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (closed != nullptr) *closed = true;
      return fail(error, "connection closed");
    }
    reader_.feed(reinterpret_cast<const std::uint8_t*>(buf),
                 static_cast<std::size_t>(n));
  }
}

bool Client::call(Action action, std::string_view payload, Frame* reply,
                  std::string* error, std::uint64_t timeout_ms) {
  const std::uint64_t nonce = ++nonce_;
  const auto bytes = encode_frame(action, FrameKind::Request, nonce, payload);
  if (!send_raw(bytes.data(), bytes.size(), error)) return false;
  // Skip unrelated frames (e.g. an unsolicited idle-timeout warning for an
  // earlier nonce) until ours arrives.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    bool closed = false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return fail(error, "timeout waiting for reply");
    if (!read_frame(reply, &closed, error,
                    static_cast<std::uint64_t>(left.count()))) {
      return false;
    }
    if (reply->header.nonce == nonce) return true;
  }
}

std::optional<DecideReply> Client::decide(const DecideRequest& req,
                                          std::string* error,
                                          std::uint64_t timeout_ms) {
  Frame reply;
  if (!call(Action::Decide, decide_request_to_json(req).dump(), &reply, error,
            timeout_ms)) {
    return std::nullopt;
  }
  if (reply.header.kind == FrameKind::Error) {
    if (error != nullptr) *error = "server error: " + reply.payload;
    return std::nullopt;
  }
  std::string parse_error;
  const auto doc = obs::JsonValue::parse(reply.payload, &parse_error);
  if (!doc) {
    if (error != nullptr) *error = "bad reply json: " + parse_error;
    return std::nullopt;
  }
  auto out = decide_reply_from_json(*doc, &parse_error);
  if (!out && error != nullptr) *error = "bad reply schema: " + parse_error;
  return out;
}

bool Client::ping(std::string* error) {
  Frame reply;
  if (!call(Action::Ping, "", &reply, error)) return false;
  if (reply.header.kind == FrameKind::Error) {
    return fail(error, "server error: " + reply.payload);
  }
  return true;
}

std::optional<obs::JsonValue> Client::cache_stats(std::string* error) {
  Frame reply;
  if (!call(Action::CacheStats, "", &reply, error)) return std::nullopt;
  if (reply.header.kind == FrameKind::Error) {
    if (error != nullptr) *error = "server error: " + reply.payload;
    return std::nullopt;
  }
  std::string parse_error;
  auto doc = obs::JsonValue::parse(reply.payload, &parse_error);
  if (!doc && error != nullptr) *error = "bad reply json: " + parse_error;
  return doc;
}

std::optional<bool> Client::cancel(std::uint64_t nonce, std::string* error) {
  obs::JsonValue body = obs::JsonValue::object();
  body.set("nonce", obs::JsonValue(nonce));
  Frame reply;
  if (!call(Action::Cancel, body.dump(), &reply, error)) return std::nullopt;
  if (reply.header.kind == FrameKind::Error) {
    if (error != nullptr) *error = "server error: " + reply.payload;
    return std::nullopt;
  }
  const auto doc = obs::JsonValue::parse(reply.payload);
  if (doc) {
    if (const obs::JsonValue* c = doc->get("cancelled");
        c != nullptr && c->kind() == obs::JsonValue::Kind::Bool) {
      return c->as_bool();
    }
  }
  if (error != nullptr) *error = "bad cancel reply: " + reply.payload;
  return std::nullopt;
}

}  // namespace dawn::net
