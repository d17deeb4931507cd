// The dawnd wire format: length-prefixed framed messages over a byte
// stream (TCP or Unix sockets).
//
// The frame layout follows the DHT exemplar cited in ROADMAP open item 1
// (fixed magic bytes, protocol version, nonce, action enum, sized payload):
//
//   offset  size  field
//   0       4     magic            "DAWN" (0x44 0x41 0x57 0x4E)
//   4       1     version          kWireVersion (1)
//   5       1     action           Action enum (Decide, Ping, ...)
//   6       1     kind             FrameKind enum (Request, Response, Error)
//   7       1     reserved         must be 0
//   8       8     nonce            little-endian; chosen by the client,
//                                  echoed verbatim in the matching reply
//   16      4     payload_size     little-endian byte count
//   20      N     payload          UTF-8 JSON document (may be empty)
//
// Everything after the fixed 20-byte header is JSON, so the payload schema
// can evolve behind `spec_version` (fuzz/artifact.hpp) without touching the
// framing. Integers are serialised little-endian byte by byte — no struct
// punning, no host-endianness leaks.
//
// FrameReader is the incremental decoder the server and client share: feed
// it raw bytes as they arrive, pop complete frames. Malformed input (wrong
// magic, unknown version, nonzero reserved byte, oversized payload) turns
// the reader into a sticky error state with a named WireError — the caller
// answers with one structured error frame and closes, never by dropping the
// connection silently (docs/SERVICE.md).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dawn::net {

inline constexpr std::array<std::uint8_t, 4> kMagic = {0x44, 0x41, 0x57,
                                                       0x4E};  // "DAWN"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderSize = 20;

// Default cap on payload_size; ServerLimits/FrameReader can lower or raise
// it. A header announcing more than the cap is a framing error (the stream
// cannot be resynchronised after a length lie, so the connection closes).
inline constexpr std::size_t kDefaultMaxPayload = std::size_t{1} << 20;

enum class Action : std::uint8_t {
  Decide = 0,      // (machine, graph, budget) in, DecisionReport out
  Ping = 1,        // liveness probe; empty payloads both ways
  CacheStats = 2,  // result-cache and server counters snapshot
  Cancel = 3,      // cancel the queued Decide whose nonce equals this frame's
  kCount,
};

enum class FrameKind : std::uint8_t {
  Request = 0,
  Response = 1,
  // Error frames carry {"error": "<code>", "detail": "..."} and echo the
  // offending request's action and nonce (zero when the request's header
  // never parsed).
  Error = 2,
  kCount,
};

const char* name(Action a);
const char* name(FrameKind k);

// Stable error codes carried by error frames ({"error": <code>}).
enum class WireError : std::uint8_t {
  None = 0,
  BadMagic,         // first four bytes are not "DAWN"
  BadVersion,       // unknown protocol version
  BadReserved,      // reserved header byte nonzero
  BadAction,        // action byte outside the enum
  BadKind,          // kind byte outside the enum (or not Request)
  FrameTooLarge,    // payload_size above the reader's cap
  BadJson,          // payload is not a JSON document
  BadSchema,        // payload JSON violates the request schema
  BadSpecVersion,   // payload spec_version is unknown
  Overloaded,       // job queue / inflight limit hit; retry later
  Draining,         // server is shutting down, no new work accepted
  Cancelled,        // the Decide this nonce named was cancelled
  ReadTimeout,      // a partial frame sat unfinished past the read timeout
  IdleTimeout,      // no frames at all past the idle timeout
  Internal,         // server-side failure (never expected; a bug)
};

const char* name(WireError e);

struct FrameHeader {
  std::uint8_t version = kWireVersion;
  Action action = Action::Ping;
  FrameKind kind = FrameKind::Request;
  std::uint64_t nonce = 0;
  std::uint32_t payload_size = 0;
};

struct Frame {
  FrameHeader header;
  std::string payload;
};

// Serialises header + payload into one contiguous buffer ready to write.
std::vector<std::uint8_t> encode_frame(Action action, FrameKind kind,
                                       std::uint64_t nonce,
                                       std::string_view payload);

// Encodes a structured error frame: payload {"error": name(e),
// "detail": detail}, action/nonce echoed from the offending request.
std::vector<std::uint8_t> encode_error_frame(Action action,
                                             std::uint64_t nonce, WireError e,
                                             std::string_view detail);

// Incremental frame decoder over a byte stream. Not thread-safe; one reader
// per connection.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  // Appends raw bytes from the stream.
  void feed(const std::uint8_t* data, std::size_t size);

  // Pops the next complete frame. Returns false when no complete frame is
  // buffered (need more bytes) or the reader is in the error state — check
  // error() to tell the two apart.
  bool next(Frame* out);

  // Sticky: set by the first malformed header and never cleared (a stream
  // with a corrupt header cannot be resynchronised).
  WireError error() const { return error_; }

  // True while the buffer holds a partial frame (header bytes or an
  // incomplete payload) — the read-timeout clock runs only in this state.
  bool mid_frame() const { return !buffer_.empty(); }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
  std::size_t max_payload_;
  WireError error_ = WireError::None;
};

}  // namespace dawn::net
