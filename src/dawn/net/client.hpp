// Blocking dawnd client: one connection, auto-incrementing nonces, a frame
// round-trip with a timeout, and typed wrappers for each action. Used by
// the dawn_client CLI, the service tests and bench_service; the frame
// fuzzer drives raw bytes through send_raw()/read_frame() instead.
//
// Every connect goes through connect_with_retry(): a non-blocking connect
// with a per-attempt timeout and bounded, jitter-backed retries, so a down
// or black-holed server fails in timeout_ms * (retries + 1) plus backoff
// instead of the OS default connect timeout (minutes on some stacks).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dawn/net/payload.hpp"
#include "dawn/net/wire.hpp"
#include "dawn/obs/json.hpp"

namespace dawn::net {

struct ConnectOptions {
  std::uint64_t timeout_ms = 5'000;  // per connect attempt
  int retries = 0;                   // extra attempts after the first
  std::uint64_t backoff_ms = 100;    // base sleep between attempts; the
                                     // actual sleep doubles per attempt and
                                     // is jittered in [base/2, base)
};

// Connects to "tcp:HOST:PORT" / "unix:PATH" (the grammar of
// parse_address() in server.hpp) with a per-attempt timeout and bounded
// retries. Returns the connected fd (blocking mode) or -1 with *error,
// which names the attempt count and the address.
int connect_with_retry(const std::string& address, const ConnectOptions& opts,
                       std::string* error);

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // "tcp:HOST:PORT" or "unix:PATH", one attempt with the default timeout.
  bool connect(const std::string& address, std::string* error = nullptr);
  // Same, with a connect timeout and bounded jittered retries
  // (dawn_client --connect-timeout-ms/--retries).
  bool connect(const std::string& address, const ConnectOptions& opts,
               std::string* error = nullptr);
  void disconnect();
  bool connected() const { return fd_ >= 0; }

  // One request/response round trip. Fails (with *error) on transport
  // errors, a reader error, or timeout; an Error frame from the server is a
  // SUCCESSFUL round trip — the caller inspects reply->header.kind.
  bool call(Action action, std::string_view payload, Frame* reply,
            std::string* error = nullptr, std::uint64_t timeout_ms = 30'000);

  // Typed wrappers. Server-side error frames are surfaced through *error as
  // "server error <code>: <detail>".
  std::optional<DecideReply> decide(const DecideRequest& req,
                                    std::string* error = nullptr,
                                    std::uint64_t timeout_ms = 60'000);
  bool ping(std::string* error = nullptr);
  std::optional<obs::JsonValue> cache_stats(std::string* error = nullptr);
  // True iff the server confirmed the cancel hit a queued job.
  std::optional<bool> cancel(std::uint64_t nonce, std::string* error = nullptr);

  // Raw access for the frame fuzzer and the malformed-frame CLI mode.
  bool send_raw(const std::uint8_t* data, std::size_t size,
                std::string* error = nullptr);
  // Reads one frame (or observes a clean close: returns false with
  // *closed = true and no error). A reader error or timeout is a failure.
  bool read_frame(Frame* out, bool* closed, std::string* error = nullptr,
                  std::uint64_t timeout_ms = 30'000);

 private:
  int fd_ = -1;
  std::uint64_t nonce_ = 0;
  FrameReader reader_;
};

}  // namespace dawn::net
