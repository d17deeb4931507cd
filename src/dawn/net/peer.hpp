// Peer links: the transport primitives of the distributed frontier engine
// (net/dist_explore.*, docs/DISTRIBUTED.md), plus the bounded-retry connect
// shared with net::Client.
//
//   * connect_with_retry() — non-blocking connect with a per-attempt
//     timeout and bounded, jitter-backed retries. A down or black-holed
//     peer fails in timeout_ms * (retries + 1) plus backoff instead of the
//     OS default connect timeout (minutes on some stacks).
//   * PeerLink — one coordinator-side connection to a worker dawnd:
//     non-blocking fd, FrameReader, and a user-space write queue. The
//     coordinator never blocks on a write (it queues and keeps polling
//     reads), which is what makes the star-routing protocol deadlock-free.
//   * read_frame_blocking / write_all_blocking — poll-driven helpers for
//     the worker-session side, which may block (the coordinator always
//     reads) but must still observe server shutdown and a barrier timeout.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "dawn/net/wire.hpp"

namespace dawn::net {

// Milliseconds on the steady clock: the deadline base of every blocking
// peer call.
std::uint64_t now_ms();

struct ConnectOptions {
  std::uint64_t timeout_ms = 5'000;  // per connect attempt
  int retries = 0;                   // extra attempts after the first
  std::uint64_t backoff_ms = 100;    // base sleep between attempts; the
                                     // actual sleep doubles per attempt and
                                     // is jittered in [base/2, base)
};

// Connects to "tcp:HOST:PORT" / "unix:PATH" with a per-attempt timeout and
// bounded retries. Returns the connected fd (blocking mode) or -1 with
// *error.
int connect_with_retry(const std::string& address, const ConnectOptions& opts,
                       std::string* error);

// Writes the whole buffer, polling through EAGAIN. Observes *stop (server
// shutdown) and fails after timeout_ms of no progress. bytes_out, when
// non-null, accumulates bytes actually written.
bool write_all_blocking(int fd, const std::uint8_t* data, std::size_t size,
                        const std::atomic<bool>* stop,
                        std::uint64_t timeout_ms,
                        std::atomic<std::uint64_t>* bytes_out);

// Reads one frame, polling up to timeout_ms. False on timeout, EOF, reader
// error, transport error, or *stop. bytes_in, when non-null, accumulates
// bytes read off the socket.
bool read_frame_blocking(int fd, FrameReader& reader, Frame* out,
                         const std::atomic<bool>* stop,
                         std::uint64_t timeout_ms,
                         std::atomic<std::uint64_t>* bytes_in);

// One non-blocking coordinator->worker connection. Not thread-safe; owned
// and driven by the coordinator's poll loop.
class PeerLink {
 public:
  PeerLink() = default;
  ~PeerLink();
  PeerLink(const PeerLink&) = delete;
  PeerLink& operator=(const PeerLink&) = delete;
  PeerLink(PeerLink&&) = delete;

  bool connect(const std::string& address, const ConnectOptions& opts,
               std::string* error);
  void close();

  int fd() const { return fd_; }
  // False once the transport failed (write error, EOF, reader error).
  bool alive() const { return fd_ >= 0 && !failed_; }
  const std::string& address() const { return address_; }

  // Byte counters (peer connection class), bumped as bytes move.
  void set_counters(std::atomic<std::uint64_t>* bytes_in,
                    std::atomic<std::uint64_t>* bytes_out) {
    bytes_in_ = bytes_in;
    bytes_out_ = bytes_out;
  }

  // Queues a frame; on_writable() drains. Never blocks.
  void queue(std::vector<std::uint8_t> bytes);
  bool want_write() const { return !writeq_.empty(); }
  std::size_t queued_bytes() const { return writeq_bytes_; }

  // Poll-event handlers: write/read as much as the socket allows. False
  // marks the link failed (alive() turns false).
  bool on_writable();
  bool on_readable();

  // Pops the next complete frame received from the worker.
  bool next(Frame* out) { return reader_.next(out); }
  WireError reader_error() const { return reader_.error(); }

  // The session nonce this link's frames echo (chosen at ShardInit).
  std::uint64_t nonce = 0;

 private:
  int fd_ = -1;
  bool failed_ = false;
  std::string address_;
  FrameReader reader_;
  std::deque<std::vector<std::uint8_t>> writeq_;
  std::size_t write_off_ = 0;
  std::size_t writeq_bytes_ = 0;
  std::atomic<std::uint64_t>* bytes_in_ = nullptr;
  std::atomic<std::uint64_t>* bytes_out_ = nullptr;
};

}  // namespace dawn::net
