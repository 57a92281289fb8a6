// Text output that reports a failed write: fwrite and fprintf only fill a
// buffer, so a full disk shows up in the stream's error flag or in fclose.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

namespace volcal {

// Writes `path` through `body(std::FILE*)`.  A failed open, write or close
// prints "cannot write <path>: <strerror>" on stderr and returns false.
template <typename Body>
bool write_text_file(const std::string& path, Body&& body) {
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    body(f);
    const bool write_failed = std::ferror(f) != 0;
    if (std::fclose(f) == 0 && !write_failed) return true;
  }
  std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), std::strerror(errno));
  return false;
}

}  // namespace volcal
