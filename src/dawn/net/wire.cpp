#include "dawn/net/wire.hpp"

#include <cstring>

#include "dawn/obs/json.hpp"

namespace dawn::net {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint64_t>(p[i]);
  }
  return v;
}

}  // namespace

const char* name(Action a) {
  switch (a) {
    case Action::Decide: return "decide";
    case Action::Ping: return "ping";
    case Action::CacheStats: return "cache-stats";
    case Action::Cancel: return "cancel";
    case Action::kCount: break;
  }
  return "?";
}

const char* name(FrameKind k) {
  switch (k) {
    case FrameKind::Request: return "request";
    case FrameKind::Response: return "response";
    case FrameKind::Error: return "error";
    case FrameKind::kCount: break;
  }
  return "?";
}

const char* name(WireError e) {
  switch (e) {
    case WireError::None: return "none";
    case WireError::BadMagic: return "bad-magic";
    case WireError::BadVersion: return "bad-version";
    case WireError::BadReserved: return "bad-reserved";
    case WireError::BadAction: return "bad-action";
    case WireError::BadKind: return "bad-kind";
    case WireError::FrameTooLarge: return "frame-too-large";
    case WireError::BadJson: return "bad-json";
    case WireError::BadSchema: return "bad-schema";
    case WireError::BadSpecVersion: return "bad-spec-version";
    case WireError::Overloaded: return "overloaded";
    case WireError::Draining: return "draining";
    case WireError::Cancelled: return "cancelled";
    case WireError::ReadTimeout: return "read-timeout";
    case WireError::IdleTimeout: return "idle-timeout";
    case WireError::Internal: return "internal";
  }
  return "?";
}

std::vector<std::uint8_t> encode_frame(Action action, FrameKind kind,
                                       std::uint64_t nonce,
                                       std::string_view payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size());
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(action));
  out.push_back(static_cast<std::uint8_t>(kind));
  out.push_back(0);  // reserved
  put_u64(out, nonce);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> encode_error_frame(Action action,
                                             std::uint64_t nonce, WireError e,
                                             std::string_view detail) {
  obs::JsonValue body = obs::JsonValue::object();
  body.set("error", obs::JsonValue(name(e)));
  body.set("detail", obs::JsonValue(detail));
  return encode_frame(action, FrameKind::Error, nonce, body.dump());
}

void FrameReader::feed(const std::uint8_t* data, std::size_t size) {
  if (error_ != WireError::None) return;
  buffer_.insert(buffer_.end(), data, data + size);
}

bool FrameReader::next(Frame* out) {
  if (error_ != WireError::None) return false;
  if (buffer_.size() - consumed_ < kHeaderSize) {
    // Compact the consumed prefix opportunistically so long-lived
    // connections do not grow the buffer without bound.
    if (consumed_ > 0) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
      consumed_ = 0;
    }
    return false;
  }
  const std::uint8_t* h = buffer_.data() + consumed_;
  if (std::memcmp(h, kMagic.data(), kMagic.size()) != 0) {
    error_ = WireError::BadMagic;
    return false;
  }
  if (h[4] != kWireVersion) {
    error_ = WireError::BadVersion;
    return false;
  }
  if (h[5] >= static_cast<std::uint8_t>(Action::kCount)) {
    error_ = WireError::BadAction;
    return false;
  }
  if (h[6] >= static_cast<std::uint8_t>(FrameKind::kCount)) {
    error_ = WireError::BadKind;
    return false;
  }
  if (h[7] != 0) {
    error_ = WireError::BadReserved;
    return false;
  }
  const std::uint32_t payload_size = get_u32(h + 16);
  if (payload_size > max_payload_) {
    error_ = WireError::FrameTooLarge;
    return false;
  }
  if (buffer_.size() - consumed_ < kHeaderSize + payload_size) {
    return false;  // wait for the rest of the payload
  }
  out->header.version = h[4];
  out->header.action = static_cast<Action>(h[5]);
  out->header.kind = static_cast<FrameKind>(h[6]);
  out->header.nonce = get_u64(h + 8);
  out->header.payload_size = payload_size;
  out->payload.assign(
      reinterpret_cast<const char*>(h + kHeaderSize), payload_size);
  consumed_ += kHeaderSize + payload_size;
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  return true;
}

}  // namespace dawn::net
