// Minimal leveled logger. Examples turn tracing on to narrate protocol
// decisions; tests and benches leave it off. Not thread-safe by design —
// the simulator is single-threaded.
//
// Diagnostics go to stderr so drivers can narrate without corrupting
// machine-readable stdout (CSV rows, golden files).
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace mck::util {

enum class LogLevel { kOff = 0, kInfo = 1, kTrace = 2 };

class Log {
 public:
  static LogLevel& level() {
    static LogLevel lvl = LogLevel::kOff;
    return lvl;
  }

  static bool enabled(LogLevel lvl) {
    return static_cast<int>(level()) >= static_cast<int>(lvl);
  }

  /// Sets the level from a name ("off", "info", "trace"); returns false
  /// and leaves the level unchanged on an unknown name.
  static bool set_level(const char* name) {
    if (std::strcmp(name, "off") == 0) {
      level() = LogLevel::kOff;
    } else if (std::strcmp(name, "info") == 0) {
      level() = LogLevel::kInfo;
    } else if (std::strcmp(name, "trace") == 0) {
      level() = LogLevel::kTrace;
    } else {
      return false;
    }
    return true;
  }

  static void printf(LogLevel lvl, const char* fmt, ...)
      __attribute__((format(printf, 2, 3))) {
    if (!enabled(lvl)) return;
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
  }
};

}  // namespace mck::util

// The level is tested before the arguments are evaluated, so a disabled
// trace costs one comparison, not the formatting of its arguments.
#define MCK_LOG_AT(lvl, ...)                                   \
  do {                                                         \
    if (::mck::util::Log::enabled(lvl)) {                      \
      ::mck::util::Log::printf(lvl, __VA_ARGS__);              \
    }                                                          \
  } while (0)
#define MCK_INFO(...) MCK_LOG_AT(::mck::util::LogLevel::kInfo, __VA_ARGS__)
#define MCK_TRACE(...) MCK_LOG_AT(::mck::util::LogLevel::kTrace, __VA_ARGS__)
