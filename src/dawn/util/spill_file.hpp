// Unlinked scratch files for out-of-core exploration: the packed store's
// spilled arena (semantics/packed_config.cpp) and the edge spool
// (semantics/tiered_config.cpp).
//
// Every file is created O_EXCL under the caller's spill dir and unlinked
// immediately: the fd keeps the storage alive, a crash leaks nothing, and
// two concurrent stores can never collide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dawn {

// An fd for a fresh unlinked file under `dir`, or -1 with *error set.
// `tag` names the file's role in the (briefly visible) path.
int open_unlinked(const std::string& dir, const char* tag, std::string* error);

// pwrite / pread of exactly `len` bytes at `off`, retrying short transfers
// and EINTR. False on any error; a short file counts as one.
bool write_all(int fd, const void* data, std::size_t len, std::uint64_t off);
bool read_all(int fd, void* data, std::size_t len, std::uint64_t off);

}  // namespace dawn
