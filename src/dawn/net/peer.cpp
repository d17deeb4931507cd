#include "dawn/net/peer.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>

namespace dawn::net {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

struct ParsedAddress {
  bool ok = false;
  bool is_unix = false;
  sockaddr_un un = {};
  sockaddr_in in = {};
  std::string error;
};

// Same grammar as the server's listen address: "unix:PATH" or
// "tcp:HOST:PORT" with HOST an IPv4 literal.
ParsedAddress parse_peer_address(const std::string& address) {
  ParsedAddress p;
  if (address.rfind("unix:", 0) == 0) {
    const std::string path = address.substr(5);
    if (path.empty() || path.size() >= sizeof(p.un.sun_path)) {
      p.error = "bad unix socket path";
      return p;
    }
    p.is_unix = true;
    p.un.sun_family = AF_UNIX;
    std::memcpy(p.un.sun_path, path.c_str(), path.size() + 1);
    p.ok = true;
    return p;
  }
  if (address.rfind("tcp:", 0) == 0) {
    const std::string rest = address.substr(4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos) {
      p.error = "tcp address needs HOST:PORT";
      return p;
    }
    const std::string host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    char* end = nullptr;
    const long port = std::strtol(port_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
      p.error = "bad tcp port";
      return p;
    }
    p.in.sin_family = AF_INET;
    p.in.sin_port = htons(static_cast<std::uint16_t>(port));
    if (inet_pton(AF_INET, host.c_str(), &p.in.sin_addr) != 1) {
      p.error = "bad tcp host (IPv4 literal required)";
      return p;
    }
    p.ok = true;
    return p;
  }
  p.error = "address must start with tcp: or unix:";
  return p;
}

bool set_nonblocking_fd(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool set_blocking_fd(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) == 0;
}

// One non-blocking connect attempt with a poll deadline.
int connect_once(const ParsedAddress& p, std::uint64_t timeout_ms,
                 std::string* error) {
  const int fd = socket(p.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (!set_nonblocking_fd(fd)) {
    if (error) *error = "fcntl(O_NONBLOCK) failed";
    close(fd);
    return -1;
  }
  const sockaddr* sa = p.is_unix
                           ? reinterpret_cast<const sockaddr*>(&p.un)
                           : reinterpret_cast<const sockaddr*>(&p.in);
  const socklen_t slen = p.is_unix ? sizeof(p.un) : sizeof(p.in);
  int rc = ::connect(fd, sa, slen);
  if (rc != 0 && errno != EINPROGRESS) {
    if (error) *error = std::string("connect: ") + std::strerror(errno);
    close(fd);
    return -1;
  }
  if (rc != 0) {
    pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const std::uint64_t deadline = now_ms() + timeout_ms;
    for (;;) {
      const std::uint64_t now = now_ms();
      if (now >= deadline) {
        if (error) *error = "connect timed out";
        close(fd);
        return -1;
      }
      const int pr = poll(&pfd, 1, static_cast<int>(deadline - now));
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) {
        if (error) *error = "connect timed out";
        close(fd);
        return -1;
      }
      break;
    }
    int so_error = 0;
    socklen_t olen = sizeof(so_error);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &olen) != 0 ||
        so_error != 0) {
      if (error) {
        *error = std::string("connect: ") +
                 std::strerror(so_error != 0 ? so_error : errno);
      }
      close(fd);
      return -1;
    }
  }
  if (!set_blocking_fd(fd)) {
    if (error) *error = "fcntl(restore blocking) failed";
    close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

int connect_with_retry(const std::string& address, const ConnectOptions& opts,
                       std::string* error) {
  const ParsedAddress p = parse_peer_address(address);
  if (!p.ok) {
    if (error) *error = p.error;
    return -1;
  }
  const std::uint64_t timeout =
      opts.timeout_ms == 0 ? 5'000 : opts.timeout_ms;
  const int attempts = opts.retries < 0 ? 1 : opts.retries + 1;
  // Jitter decorrelates simultaneous reconnect storms; the timing is
  // deliberately outside the determinism contract.
  std::minstd_rand rng(static_cast<std::uint32_t>(
      now_ms() ^ (std::hash<std::string>{}(address) << 1)));
  std::string last_error;
  std::uint64_t backoff = opts.backoff_ms == 0 ? 100 : opts.backoff_ms;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const std::uint64_t jittered =
          backoff / 2 + rng() % (backoff / 2 + 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
      backoff *= 2;
    }
    const int fd = connect_once(p, timeout, &last_error);
    if (fd >= 0) return fd;
  }
  if (error) {
    *error = last_error + " (" + std::to_string(attempts) + " attempt" +
             (attempts == 1 ? "" : "s") + " to " + address + ")";
  }
  return -1;
}

bool write_all_blocking(int fd, const std::uint8_t* data, std::size_t size,
                        const std::atomic<bool>* stop,
                        std::uint64_t timeout_ms,
                        std::atomic<std::uint64_t>* bytes_out) {
  std::size_t off = 0;
  const std::uint64_t deadline = now_ms() + timeout_ms;
  while (off < size) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return false;
    const ssize_t n = send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      if (bytes_out != nullptr) {
        bytes_out->fetch_add(static_cast<std::uint64_t>(n),
                             std::memory_order_relaxed);
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const std::uint64_t now = now_ms();
      if (now >= deadline) return false;
      pollfd pfd = {};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      // Wake at least every 200ms to notice shutdown.
      const int wait = static_cast<int>(
          std::min<std::uint64_t>(200, deadline - now));
      poll(&pfd, 1, wait);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // hard transport error or peer gone
  }
  return true;
}

bool read_frame_blocking(int fd, FrameReader& reader, Frame* out,
                         const std::atomic<bool>* stop,
                         std::uint64_t timeout_ms,
                         std::atomic<std::uint64_t>* bytes_in) {
  if (reader.next(out)) return true;
  if (reader.error() != WireError::None) return false;
  const std::uint64_t deadline = now_ms() + timeout_ms;
  std::uint8_t buf[16 * 1024];
  for (;;) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return false;
    const std::uint64_t now = now_ms();
    if (now >= deadline) return false;
    pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int wait = static_cast<int>(
        std::min<std::uint64_t>(200, deadline - now));
    const int pr = poll(&pfd, 1, wait);
    if (pr < 0 && errno != EINTR) return false;
    if (pr <= 0) continue;
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n == 0) return false;  // EOF
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return false;
    }
    if (bytes_in != nullptr) {
      bytes_in->fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
    }
    reader.feed(buf, static_cast<std::size_t>(n));
    if (reader.next(out)) return true;
    if (reader.error() != WireError::None) return false;
  }
}

PeerLink::~PeerLink() { close(); }

bool PeerLink::connect(const std::string& address, const ConnectOptions& opts,
                       std::string* error) {
  close();
  address_ = address;
  fd_ = connect_with_retry(address, opts, error);
  if (fd_ < 0) {
    failed_ = true;
    return false;
  }
  if (!set_nonblocking_fd(fd_)) {
    if (error) *error = "fcntl(O_NONBLOCK) failed";
    close();
    failed_ = true;
    return false;
  }
  failed_ = false;
  return true;
}

void PeerLink::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  writeq_.clear();
  write_off_ = 0;
  writeq_bytes_ = 0;
}

void PeerLink::queue(std::vector<std::uint8_t> bytes) {
  if (!alive() || bytes.empty()) return;
  writeq_bytes_ += bytes.size();
  writeq_.push_back(std::move(bytes));
}

bool PeerLink::on_writable() {
  if (!alive()) return false;
  while (!writeq_.empty()) {
    const auto& buf = writeq_.front();
    const ssize_t n = send(fd_, buf.data() + write_off_,
                           buf.size() - write_off_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return true;  // socket full; try again on the next poll tick
      }
      failed_ = true;
      return false;
    }
    if (bytes_out_ != nullptr) {
      bytes_out_->fetch_add(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);
    }
    write_off_ += static_cast<std::size_t>(n);
    writeq_bytes_ -= static_cast<std::size_t>(n);
    if (write_off_ == buf.size()) {
      writeq_.pop_front();
      write_off_ = 0;
    }
  }
  return true;
}

bool PeerLink::on_readable() {
  if (!alive()) return false;
  std::uint8_t buf[16 * 1024];
  for (;;) {
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      if (bytes_in_ != nullptr) {
        bytes_in_->fetch_add(static_cast<std::uint64_t>(n),
                             std::memory_order_relaxed);
      }
      reader_.feed(buf, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) return true;
      continue;
    }
    if (n == 0) {
      failed_ = true;  // peer closed
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    failed_ = true;
    return false;
  }
}

}  // namespace dawn::net
