// LEB128 varint encoding of the distributed frontier and result frames
// (net/dist_explore.cpp). Little-endian base-128: seven payload bits per
// byte, high bit = continuation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dawn {

inline void append_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

// Decodes one varint from data[*pos..len). Returns false on truncation or a
// > 64-bit encoding, leaving *pos unspecified.
inline bool read_varint(const std::uint8_t* data, std::size_t len,
                        std::size_t* pos, std::uint64_t* value) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (*pos >= len || shift >= 64) return false;
    const std::uint8_t b = data[(*pos)++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  *value = v;
  return true;
}

}  // namespace dawn
