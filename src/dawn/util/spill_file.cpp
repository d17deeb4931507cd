#include "dawn/util/spill_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

namespace dawn {

int open_unlinked(const std::string& dir, const char* tag,
                  std::string* error) {
  static std::atomic<std::uint64_t> seq{0};
  if (dir.empty()) {
    *error = "empty spill dir";
    return -1;
  }
  const std::string path = dir + "/dawn-spill-" + std::to_string(::getpid()) +
                           "-" + tag + "-" +
                           std::to_string(seq.fetch_add(1)) + ".tmp";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC,
                        0600);
  if (fd < 0) {
    *error = "open " + path + ": " + std::strerror(errno);
    return -1;
  }
  ::unlink(path.c_str());
  return fd;
}

bool write_all(int fd, const void* data, std::size_t len, std::uint64_t off) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    off += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t len, std::uint64_t off) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, static_cast<off_t>(off));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // short file = corruption, treat as failure
    }
    p += n;
    off += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace dawn
