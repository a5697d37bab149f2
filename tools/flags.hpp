// Strict numeric flag parsing shared by the command-line tools: a value
// that is not wholly a number, or is out of range, is a usage error
// (exit 2), never a silent zero or a prefix.
#pragma once

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <string>

namespace mck::cli {

/// Prints `msg` (when non-null) and the tool's usage text to stderr, then
/// exits with status 2. Each tool defines its own.
[[noreturn]] void usage(const char* msg = nullptr);

/// The whole of `s` as a finite number; anything else is a usage error.
inline double parse_real(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    usage((std::string(flag) + " needs a number, got '" + s + "'").c_str());
  }
  return v;
}

/// The whole of `s` as an integer; anything else is a usage error.
inline long long parse_int(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) {
    usage((std::string(flag) + " needs an integer, got '" + s + "'").c_str());
  }
  return v;
}

/// An integer flag that must be at least `min` and fit an int.
inline int parse_count(const char* flag, const char* s, int min) {
  long long v = parse_int(flag, s);
  if (v < min) {
    usage((std::string(flag) + " must be >= " + std::to_string(min)).c_str());
  }
  if (v > INT_MAX) usage((std::string(flag) + " is too large").c_str());
  return static_cast<int>(v);
}

}  // namespace mck::cli
