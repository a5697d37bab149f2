// Binary framing shared by the two obs file formats, the MCKTRC02 trace
// (trace_io.cpp) and the MCKTL02 timeline (timeline.cpp): stdio helpers
// and the common file header. Private to the mck_obs library.
//
// Common header (little-endian):
//   magic          8 B, names the format and its version
//   num_processes  u32
//   algo length    u32 (at most kMaxAlgoName), followed by that many bytes
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>

namespace mck::obs::io {

/// Longest algorithm name a reader accepts; a longer length field means
/// a corrupt header.
inline constexpr std::uint32_t kMaxAlgoName = 4096;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

inline void set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

inline bool write_all(std::FILE* f, const void* p, std::size_t n) {
  return n == 0 || std::fwrite(p, 1, n, f) == n;
}

inline bool read_all(std::FILE* f, void* p, std::size_t n) {
  return n == 0 || std::fread(p, 1, n, f) == n;
}

template <typename T>
bool write_pod(std::FILE* f, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return write_all(f, &v, sizeof v);
}

template <typename T>
bool read_pod(std::FILE* f, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return read_all(f, &v, sizeof v);
}

/// Opens `path` with stdio `mode` ("rb" or "wb"); null and *error on
/// failure.
inline FilePtr open_file(const std::string& path, const char* mode,
                         std::string* error) {
  FilePtr f(std::fopen(path.c_str(), mode));
  if (!f) {
    set_error(error, "cannot open " + path +
                         (mode[0] == 'w' ? " for writing" : ""));
  }
  return f;
}

/// Ends a write whose steps returned `ok`: false and *error when a write
/// came up short or the flush fails.
inline bool finish_write(std::FILE* f, bool ok, const std::string& path,
                         std::string* error) {
  if (!ok) {
    set_error(error, "short write to " + path);
    return false;
  }
  if (std::fflush(f) != 0) {
    set_error(error, "flush failed for " + path);
    return false;
  }
  return true;
}

inline bool write_header(std::FILE* f, const char (&magic)[8],
                         int num_processes, const std::string& algo) {
  return write_all(f, magic, sizeof magic) &&
         write_pod(f, static_cast<std::uint32_t>(num_processes)) &&
         write_pod(f, static_cast<std::uint32_t>(algo.size())) &&
         write_all(f, algo.data(), algo.size());
}

/// Reads the common header and checks its magic. `what` names the format
/// in the bad-magic error ("trace", "timeline").
inline bool read_header(std::FILE* f, const char (&magic)[8],
                        const std::string& path, const char* what,
                        int& num_processes, std::string& algo,
                        std::string* error) {
  char got[8];
  if (!read_all(f, got, sizeof got) ||
      std::memcmp(got, magic, sizeof got) != 0) {
    set_error(error, path + ": not a mck " + what + " file (bad magic)");
    return false;
  }
  std::uint32_t n = 0, algo_len = 0;
  if (!read_pod(f, n) || !read_pod(f, algo_len) ||
      algo_len > kMaxAlgoName) {
    set_error(error, path + ": corrupt header");
    return false;
  }
  num_processes = static_cast<int>(n);
  algo.resize(algo_len);
  if (!read_all(f, algo.data(), algo_len)) {
    set_error(error, path + ": truncated header");
    return false;
  }
  return true;
}

}  // namespace mck::obs::io
