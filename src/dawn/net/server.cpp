#include "dawn/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "dawn/fuzz/artifact.hpp"
#include "dawn/fuzz/gen.hpp"
#include "dawn/obs/telemetry.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/semantics/trials.hpp"

namespace dawn::net {
namespace {

using Clock = std::chrono::steady_clock;

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

int parse_address(const std::string& address, sockaddr_storage* out,
                  socklen_t* out_len, std::string* error) {
  if (address.rfind("unix:", 0) == 0) {
    const std::string path = address.substr(5);
    auto* sa = reinterpret_cast<sockaddr_un*>(out);
    std::memset(sa, 0, sizeof(*sa));
    if (path.empty() || path.size() >= sizeof(sa->sun_path)) {
      if (error != nullptr) *error = "bad unix socket path: " + address;
      return AF_UNSPEC;
    }
    sa->sun_family = AF_UNIX;
    std::memcpy(sa->sun_path, path.c_str(), path.size() + 1);
    *out_len = static_cast<socklen_t>(sizeof(sockaddr_un));
    return AF_UNIX;
  }
  if (address.rfind("tcp:", 0) == 0) {
    const std::string rest = address.substr(4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos) {
      if (error != nullptr) *error = "expected tcp:HOST:PORT, got " + address;
      return AF_UNSPEC;
    }
    const std::string host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    char* end = nullptr;
    const long port = std::strtol(port_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
      if (error != nullptr) *error = "bad tcp port: " + address;
      return AF_UNSPEC;
    }
    auto* sa = reinterpret_cast<sockaddr_in*>(out);
    std::memset(sa, 0, sizeof(*sa));
    sa->sin_family = AF_INET;
    sa->sin_port = htons(static_cast<std::uint16_t>(port));
    if (inet_pton(AF_INET, host.c_str(), &sa->sin_addr) != 1) {
      if (error != nullptr) {
        *error = "bad IPv4 host (literals only): " + address;
      }
      return AF_UNSPEC;
    }
    *out_len = static_cast<socklen_t>(sizeof(sockaddr_in));
    return AF_INET;
  }
  if (error != nullptr) {
    *error = "address must start with tcp: or unix:, got " + address;
  }
  return AF_UNSPEC;
}

// -- Server internals --------------------------------------------------------

struct Server::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  FrameReader reader;
  std::deque<std::vector<std::uint8_t>> writeq;
  std::size_t write_off = 0;     // bytes of writeq.front() already sent
  std::size_t writeq_bytes = 0;  // total bytes of frames still in writeq
  int inflight = 0;              // Decide jobs outstanding for this connection
  Clock::time_point last_activity;
  bool peer_eof = false;  // stop reading; close once flushed + idle
  bool close_after_flush = false;
  // Connections are never destroyed mid-handler: a failed write (or any
  // other fatal condition) sets `dead` and the poll loop reaps the fd at the
  // end of the tick, so references held across send_frame() stay valid.
  bool dead = false;

  explicit Connection(std::size_t max_payload) : reader(max_payload) {}
};

struct Server::Job {
  // Queued -> Running -> Done, or Queued -> Cancelled (poll thread CAS).
  enum State : int { Queued = 0, Running, Done, Cancelled };

  std::uint64_t conn_id = 0;
  int conn_fd = -1;
  std::uint64_t nonce = 0;
  DecideRequest req;
  bool clamped = false;
  std::string key;  // cache key over the clamped request
  std::atomic<int> state{Queued};
};

struct Server::Completion {
  std::uint64_t conn_id = 0;
  int conn_fd = -1;
  std::vector<std::uint8_t> frame;  // ready-to-send reply or error frame
  std::string cache_key;            // nonempty = insert cache_value
  std::string cache_value;
};

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_entries, opts_.cache_bytes) {}

Server::~Server() {
  request_stop();
  if (exec_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      workers_stop_ = true;
    }
    queue_cv_.notify_all();
    exec_.join();
  }
  for (auto& [fd, c] : conns_) close(fd);
  conns_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_rd_ >= 0) close(wake_rd_);
  if (wake_wr_ >= 0) close(wake_wr_);
  if (!unix_path_.empty()) unlink(unix_path_.c_str());
}

bool Server::start(std::string* error) {
  // Validate the option surface before touching the network, so a
  // misconfigured server fails at bind time with a named error instead of
  // misbehaving under load.
  const auto fail_opts = [error](const std::string& why) {
    if (error != nullptr) *error = "server-options: " + why;
    return false;
  };
  if (opts_.max_inflight_per_conn <= 0) {
    return fail_opts("max_inflight_per_conn must be positive, got " +
                     std::to_string(opts_.max_inflight_per_conn));
  }
  if (opts_.max_payload < kHeaderSize) {
    return fail_opts("max_payload " + std::to_string(opts_.max_payload) +
                     " is smaller than one wire header (" +
                     std::to_string(kHeaderSize) + " bytes)");
  }
  if (opts_.max_queue == 0) {
    return fail_opts("max_queue must be nonzero");
  }

  sockaddr_storage sa;
  socklen_t sa_len = 0;
  const int family = parse_address(opts_.listen, &sa, &sa_len, error);
  if (family == AF_UNSPEC) return false;

  listen_fd_ = socket(family, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (family == AF_INET) {
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  } else {
    unix_path_ = opts_.listen.substr(5);
    unlink(unix_path_.c_str());  // stale socket from a crashed run
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sa_len) != 0 ||
      listen(listen_fd_, 64) != 0) {
    if (error != nullptr) {
      *error = "bind/listen " + opts_.listen + ": " + std::strerror(errno);
    }
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  set_nonblocking(listen_fd_);

  if (family == AF_INET) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    char host[INET_ADDRSTRLEN] = {0};
    inet_ntop(AF_INET, &bound.sin_addr, host, sizeof(host));
    address_ = std::string("tcp:") + host + ":" +
               std::to_string(ntohs(bound.sin_port));
  } else {
    address_ = opts_.listen;
  }

  int pipefd[2];
  if (pipe(pipefd) != 0) {
    if (error != nullptr) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);

  pool_ = std::make_unique<WorkerPool>(opts_.workers);
  exec_ = std::thread([this] {
    pool_->run([this](int worker) { worker_main(worker); });
  });
  return true;
}

void Server::wake() {
  const char byte = 'w';
  // Best-effort: a full pipe already guarantees a pending wake-up.
  [[maybe_unused]] const ssize_t n = write(wake_wr_, &byte, 1);
}

void Server::request_drain() {
  draining_.store(true, std::memory_order_release);
  wake();
}

void Server::request_stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

void Server::run() { poll_loop(); }

void Server::poll_loop() {
  std::vector<pollfd> fds;
  std::vector<int> fd_order;
  while (!stop_.load(std::memory_order_acquire)) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && inflight_ == 0) {
      // Flush what is queued to write, then leave.
      bool pending = false;
      for (const auto& [fd, c] : conns_) {
        if (!c->dead && !c->writeq.empty()) pending = true;
      }
      if (!pending) break;
    }

    fds.clear();
    fd_order.clear();
    fds.push_back({wake_rd_, POLLIN, 0});
    if (!draining && listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, c] : conns_) {
      short events = 0;
      if (!c->peer_eof && !c->close_after_flush &&
          c->reader.error() == WireError::None) {
        events |= POLLIN;
      }
      if (!c->writeq.empty()) events |= POLLOUT;
      if (events == 0) events = POLLERR;  // still want hangup notification
      fds.push_back({fd, events, 0});
      fd_order.push_back(fd);
    }

    const int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
    if (rc < 0 && errno != EINTR) break;

    // Wake pipe: drain it, then the completion queue.
    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    drain_completions();

    std::size_t idx = 1;
    if (!draining && listen_fd_ >= 0) {
      if (fds[idx].revents & POLLIN) accept_ready();
      ++idx;
    }
    for (std::size_t i = 0; i < fd_order.size(); ++i, ++idx) {
      const int fd = fd_order[i];
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Connection& c = *it->second;
      if (c.dead) continue;  // marked by a completion this tick; reaped below
      const short revents = fds[idx].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        c.dead = true;
        continue;
      }
      if (revents & POLLOUT) conn_writable(c);
      if (!c.dead && (revents & (POLLIN | POLLHUP))) conn_readable(c);
      // A connection with nothing left to do and no way to get more work
      // can be reaped.
      if (!c.dead && (c.peer_eof || c.close_after_flush) && c.writeq.empty() &&
          c.inflight == 0) {
        c.dead = true;
      }
    }

    scan_timeouts();
    reap_dead();
  }

  // Stop the worker gang.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  if (exec_.joinable()) exec_.join();
  drain_completions();

  // Close everything now (not in the destructor) so clients blocked on a
  // reply see EOF the moment the drain completes.
  for (auto& [fd, c] : conns_) close(fd);
  conns_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unix_path_.empty()) {
    unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

void Server::accept_ready() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: next poll tick retries
    set_nonblocking(fd);
    auto c = std::make_unique<Connection>(opts_.max_payload);
    c->fd = fd;
    c->id = next_conn_id_++;
    c->last_activity = Clock::now();
    conns_.emplace(fd, std::move(c));
    metrics_.add(obs::Counter::NetConnections);
  }
}

void Server::conn_readable(Connection& c) {
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = read(c.fd, buf, sizeof(buf));
    if (n > 0) {
      c.last_activity = Clock::now();
      bytes_in_client_.fetch_add(static_cast<std::uint64_t>(n),
                                 std::memory_order_relaxed);
      c.reader.feed(reinterpret_cast<const std::uint8_t*>(buf),
                    static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      c.peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;  // a signal is not a dead peer
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    c.dead = true;
    return;
  }

  Frame f;
  while (!c.dead && c.reader.next(&f)) {
    handle_frame(c, f);
    if (c.dead) return;
    if (c.close_after_flush) break;
  }
  if (!c.dead && c.reader.error() != WireError::None && !c.close_after_flush) {
    // The stream cannot be resynced after a corrupt header: answer with a
    // structured error naming the problem, then close once it is flushed.
    send_error(c, Action::Decide, 0, c.reader.error(), "unresyncable stream");
    c.close_after_flush = true;
  }
}

void Server::conn_writable(Connection& c) {
  while (!c.writeq.empty()) {
    const std::vector<std::uint8_t>& front = c.writeq.front();
    // MSG_NOSIGNAL: a disconnected peer is an EPIPE, not a process signal
    // (the in-process test servers must not die on SIGPIPE).
    const ssize_t n = send(c.fd, front.data() + c.write_off,
                           front.size() - c.write_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      c.dead = true;
      return;
    }
    c.write_off += static_cast<std::size_t>(n);
    c.last_activity = Clock::now();
    bytes_out_client_.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
    if (c.write_off < front.size()) return;
    c.writeq_bytes -= front.size();
    c.writeq.pop_front();
    c.write_off = 0;
  }
  if (c.close_after_flush && c.writeq.empty() && c.inflight == 0) {
    c.dead = true;
  }
}

void Server::send_frame(Connection& c, std::vector<std::uint8_t> bytes) {
  if (c.dead) return;  // peer already gone; the frame has nowhere to go
  c.writeq_bytes += bytes.size();
  c.writeq.push_back(std::move(bytes));
  // Opportunistic immediate write; POLLOUT picks up whatever is left.
  conn_writable(c);
  if (!c.dead && opts_.max_writeq_bytes > 0 &&
      c.writeq_bytes > opts_.max_writeq_bytes) {
    // The peer pipelines requests but never reads replies; its reads keep
    // the idle timeout at bay, so cap its reply backlog instead.
    metrics_.add(obs::Counter::NetErrors);
    c.dead = true;
  }
}

void Server::send_error(Connection& c, Action action, std::uint64_t nonce,
                        WireError e, std::string_view detail) {
  metrics_.add(obs::Counter::NetErrors);
  send_frame(c, encode_error_frame(action, nonce, e, detail));
}

// The only place a Connection is ever destroyed; runs once per poll tick,
// after every handler has returned.
void Server::reap_dead() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->second->dead) {
      close(it->first);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::handle_frame(Connection& c, const Frame& f) {
  metrics_.add(obs::Counter::NetRequests);
  if (f.header.kind != FrameKind::Request) {
    send_error(c, f.header.action, f.header.nonce, WireError::BadKind,
               "server accepts request frames only");
    return;
  }
  switch (f.header.action) {
    case Action::Ping: {
      obs::JsonValue body = obs::JsonValue::object();
      body.set("spec_version", obs::JsonValue(fuzz::kSpecVersion));
      body.set("pong", obs::JsonValue(true));
      body.set("draining",
               obs::JsonValue(draining_.load(std::memory_order_acquire)));
      send_frame(c, encode_frame(Action::Ping, FrameKind::Response,
                                 f.header.nonce, body.dump()));
      return;
    }
    case Action::CacheStats: {
      const ServerStats s = stats();
      obs::JsonValue body = obs::JsonValue::object();
      body.set("spec_version", obs::JsonValue(fuzz::kSpecVersion));
      body.set("hits", obs::JsonValue(s.cache.hits));
      body.set("misses", obs::JsonValue(s.cache.misses));
      body.set("insertions", obs::JsonValue(s.cache.insertions));
      body.set("evictions", obs::JsonValue(s.cache.evictions));
      body.set("oversize_rejections",
               obs::JsonValue(s.cache.oversize_rejections));
      body.set("entries", obs::JsonValue(s.cache.entries));
      body.set("bytes", obs::JsonValue(s.cache.bytes));
      body.set("spilled_requests", obs::JsonValue(s.spilled_requests));
      body.set("spill_bytes", obs::JsonValue(s.spill_bytes));
      body.set("connections", obs::JsonValue(s.connections));
      body.set("requests", obs::JsonValue(s.requests));
      body.set("errors", obs::JsonValue(s.errors));
      body.set("inflight", obs::JsonValue(s.inflight));
      body.set("bytes_in_client", obs::JsonValue(s.bytes_in_client));
      body.set("bytes_out_client", obs::JsonValue(s.bytes_out_client));
      send_frame(c, encode_frame(Action::CacheStats, FrameKind::Response,
                                 f.header.nonce, body.dump()));
      return;
    }
    case Action::Cancel:
      handle_cancel(c, f);
      return;
    case Action::Decide:
      handle_decide(c, f);
      return;
    case Action::kCount:
      break;
  }
  send_error(c, f.header.action, f.header.nonce, WireError::BadAction,
             "unhandled action");
}

void Server::handle_decide(Connection& c, const Frame& f) {
  if (draining_.load(std::memory_order_acquire)) {
    send_error(c, Action::Decide, f.header.nonce, WireError::Draining,
               "server is draining");
    return;
  }
  std::string error;
  const auto doc = obs::JsonValue::parse(f.payload, &error);
  if (!doc) {
    send_error(c, Action::Decide, f.header.nonce, WireError::BadJson, error);
    return;
  }
  auto req = decide_request_from_json(*doc, &error);
  if (!req) {
    const WireError kind = error.rfind("unknown spec_version", 0) == 0
                               ? WireError::BadSpecVersion
                               : WireError::BadSchema;
    send_error(c, Action::Decide, f.header.nonce, kind, error);
    return;
  }

  // Clamp the request budget against the server-wide caps. The cache is
  // keyed on the clamped budget, so requests that differ only above the
  // caps share an entry.
  bool clamped = false;
  ExploreBudget& b = req->budget;
  if (b.max_configs == 0 || b.max_configs > opts_.max_configs_cap) {
    b.max_configs = opts_.max_configs_cap;
    clamped = true;
  }
  if (b.max_threads <= 0 || b.max_threads > opts_.max_threads_cap) {
    b.max_threads = opts_.max_threads_cap;
    clamped = true;
  }
  if (opts_.deadline_cap_ms > 0 &&
      (b.deadline_ms == 0 || b.deadline_ms > opts_.deadline_cap_ms)) {
    b.deadline_ms = opts_.deadline_cap_ms;
    clamped = true;
  }
  // Spill policy: out-of-core runs are request-opt-in (nonzero
  // max_store_bytes) but server-gated. No --spill-dir means the knob is
  // forced off; otherwise it is clamped to the server cap. Clamping happens
  // here — before cache keying — like every other budget field.
  if (b.max_store_bytes != 0) {
    if (opts_.spill_dir.empty()) {
      b.max_store_bytes = 0;
      clamped = true;
    } else if (opts_.max_store_bytes_cap != 0 &&
               b.max_store_bytes > opts_.max_store_bytes_cap) {
      b.max_store_bytes = opts_.max_store_bytes_cap;
      clamped = true;
    }
  }

  const std::string key = cache_key(*req);
  std::string cached;
  if (cache_.lookup(key, &cached)) {
    metrics_.add(obs::Counter::NetCacheHits);
    // The cached value is the canonical reply payload with cache_hit=false;
    // patch the flag by re-serialising (cheap relative to a decide()).
    auto body = obs::JsonValue::parse(cached);
    if (body) {
      body->set("cache_hit", obs::JsonValue(true));
      send_frame(c, encode_frame(Action::Decide, FrameKind::Response,
                                 f.header.nonce, body->dump()));
      return;
    }
    // An unparseable cache entry is an internal bug; fall through to run.
  }

  if (c.inflight >= opts_.max_inflight_per_conn) {
    send_error(c, Action::Decide, f.header.nonce, WireError::Overloaded,
               "per-connection inflight limit reached");
    return;
  }
  auto job = std::make_shared<Job>();
  job->conn_id = c.id;
  job->conn_fd = c.fd;
  job->nonce = f.header.nonce;
  job->req = std::move(*req);
  job->clamped = clamped;
  job->key = key;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() >= opts_.max_queue) {
      send_error(c, Action::Decide, f.header.nonce, WireError::Overloaded,
                 "server job queue full");
      return;
    }
    queue_.push_back(job);
  }
  queue_cv_.notify_one();
  ++c.inflight;
  ++inflight_;
  metrics_.gauge_max(obs::Gauge::NetInflightPeak, inflight_);
}

void Server::handle_cancel(Connection& c, const Frame& f) {
  std::string error;
  const auto doc = obs::JsonValue::parse(f.payload, &error);
  std::uint64_t target = 0;
  bool have_target = false;
  if (doc && doc->kind() == obs::JsonValue::Kind::Object) {
    if (const obs::JsonValue* n = doc->get("nonce");
        n != nullptr && n->kind() == obs::JsonValue::Kind::Int) {
      target = static_cast<std::uint64_t>(n->as_int());
      have_target = true;
    }
  }
  if (!have_target) {
    send_error(c, Action::Cancel, f.header.nonce, WireError::BadSchema,
               "cancel payload must be {\"nonce\": N}");
    return;
  }

  bool cancelled = false;
  std::shared_ptr<Job> victim;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (auto& job : queue_) {
      if (job->conn_id == c.id && job->nonce == target) {
        int expected = Job::Queued;
        if (job->state.compare_exchange_strong(expected, Job::Cancelled)) {
          cancelled = true;
          victim = job;
        }
        break;  // nonces are unique per connection in practice; first wins
      }
    }
  }
  if (cancelled) {
    // The Decide's reply slot: a structured "cancelled" error frame. The
    // worker will skip the job when it reaches it.
    send_error(c, Action::Decide, target, WireError::Cancelled,
               "cancelled by request");
    --c.inflight;
    --inflight_;
  }
  obs::JsonValue body = obs::JsonValue::object();
  body.set("spec_version", obs::JsonValue(fuzz::kSpecVersion));
  body.set("cancelled", obs::JsonValue(cancelled));
  send_frame(c, encode_frame(Action::Cancel, FrameKind::Response,
                             f.header.nonce, body.dump()));
}

void Server::scan_timeouts() {
  // send_error() only marks connections dead (never erases them), so
  // iterating conns_ while sending is safe; reap_dead() runs right after.
  const auto now = Clock::now();
  for (auto& [fd, cp] : conns_) {
    Connection& c = *cp;
    if (c.dead || c.close_after_flush) continue;
    const auto idle_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - c.last_activity)
            .count();
    if (c.reader.mid_frame() && opts_.read_timeout_ms > 0 &&
        idle_ms > static_cast<std::int64_t>(opts_.read_timeout_ms)) {
      send_error(c, Action::Decide, 0, WireError::ReadTimeout,
                 "stalled mid-frame");
      c.close_after_flush = true;
    } else if (c.inflight == 0 && c.writeq.empty() &&
               opts_.idle_timeout_ms > 0 &&
               idle_ms > static_cast<std::int64_t>(opts_.idle_timeout_ms)) {
      send_error(c, Action::Decide, 0, WireError::IdleTimeout,
                 "idle connection");
      c.close_after_flush = true;
    }
  }
}

void Server::worker_main(int worker) {
  (void)worker;
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // workers_stop_
      job = queue_.front();
      queue_.pop_front();
    }
    int expected = Job::Queued;
    if (!job->state.compare_exchange_strong(expected, Job::Running)) {
      continue;  // cancelled while queued; the poll thread already replied
    }

    Completion done;
    done.conn_id = job->conn_id;
    done.conn_fd = job->conn_fd;

    obs::SpanScope span(&spans_, obs::Phase::NetRequest,
                        static_cast<std::uint64_t>(job->req.graph.n()));

    DecideReply reply;
    reply.clamped = job->clamped;
    std::unique_ptr<obs::SpanLog> trace_log;
    if (job->req.want_trace && !opts_.trace_dir.empty()) {
      trace_log = std::make_unique<obs::SpanLog>();
    }
    {
      obs::Telemetry tel;
      tel.spans = trace_log.get();
      obs::TelemetryScope scope(tel);
      const auto machine = fuzz::build_machine(job->req.machine);
      DecisionRequest dr;
      dr.method = job->req.method;
      dr.budget = job->req.budget;
      // The spill dir is server config, never wire input: inject it only
      // when the (already clamped) request opted into a byte budget.
      if (dr.budget.max_store_bytes != 0) {
        dr.budget.spill_dir = opts_.spill_dir;
      }
      reply.report = dawn::decide(*machine, job->req.graph, dr);
    }
    {
      // Spill accounting for CacheStats, from the report's ledger.
      const obs::MemoryLedger& mem = reply.report.memory;
      const std::uint64_t spilled =
          mem.get(obs::MemoryAccount::SpillArenaBytes) +
          mem.get(obs::MemoryAccount::SpillEdgeBytes);
      if (spilled > 0) {
        spilled_requests_.fetch_add(1, std::memory_order_relaxed);
        spill_bytes_.fetch_add(spilled, std::memory_order_relaxed);
      }
    }
    if (trace_log != nullptr) {
      const std::uint64_t seq =
          trace_seq_.fetch_add(1, std::memory_order_relaxed);
      const std::string path = opts_.trace_dir + "/dawnd-req-" +
                               std::to_string(seq) + ".trace.json";
      if (obs::dump_chrome_trace(*trace_log, path)) reply.trace_path = path;
    }

    // Deadline-aborted reports depend on machine load — never cache them.
    const bool cacheable =
        reply.report.unknown_reason != UnknownReason::Deadline;
    // Canonical payload with cache_hit=false and no trace path: exactly the
    // bytes a future hit replays (modulo the patched cache_hit flag).
    DecideReply canonical = reply;
    canonical.cache_hit = false;
    canonical.trace_path.clear();
    const std::string canonical_payload = decide_reply_to_json(canonical).dump();
    if (cacheable) {
      done.cache_key = job->key;
      done.cache_value = canonical_payload;
    }
    const std::string payload =
        reply.trace_path.empty() ? canonical_payload
                                 : decide_reply_to_json(reply).dump();
    done.frame = encode_frame(Action::Decide, FrameKind::Response, job->nonce,
                              payload);
    job->state.store(Job::Done, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back(std::move(done));
    }
    wake();
  }
}

void Server::drain_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    batch.swap(done_);
  }
  for (Completion& done : batch) {
    if (!done.cache_key.empty()) {
      cache_.insert(done.cache_key, std::move(done.cache_value));
    }
    --inflight_;
    auto it = conns_.find(done.conn_fd);
    if (it == conns_.end() || it->second->id != done.conn_id) {
      continue;  // connection went away (or the fd was reused)
    }
    Connection& c = *it->second;
    --c.inflight;
    send_frame(c, std::move(done.frame));
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = metrics_.counter(obs::Counter::NetConnections);
  s.requests = metrics_.counter(obs::Counter::NetRequests);
  s.errors = metrics_.counter(obs::Counter::NetErrors);
  s.open_connections = conns_.size();
  s.inflight = inflight_;
  s.spilled_requests = spilled_requests_.load(std::memory_order_relaxed);
  s.spill_bytes = spill_bytes_.load(std::memory_order_relaxed);
  s.bytes_in_client = bytes_in_client_.load(std::memory_order_relaxed);
  s.bytes_out_client = bytes_out_client_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  return s;
}

}  // namespace dawn::net
