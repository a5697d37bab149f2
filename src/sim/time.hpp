// Simulated time. Integer nanoseconds keep event ordering exact and runs
// bit-for-bit reproducible across platforms (the paper's delays — 0.2 ms,
// 2.5 ms, 4 ms, 2 s, 900 s — are all exact in nanoseconds).
#pragma once

#include <cstdint>

namespace mck::sim {

using SimTime = std::int64_t;  // nanoseconds

inline constexpr SimTime kTimeZero = 0;
inline constexpr SimTime kTimeNever = INT64_MAX;

constexpr SimTime nanoseconds(std::int64_t v) { return v; }
constexpr SimTime microseconds(std::int64_t v) { return v * 1'000; }
constexpr SimTime milliseconds(std::int64_t v) { return v * 1'000'000; }
constexpr SimTime seconds(std::int64_t v) { return v * 1'000'000'000; }

/// Converts a duration in (possibly fractional) seconds; rounds to ns.
constexpr SimTime from_seconds(double s) {
  return static_cast<SimTime>(s * 1e9 + (s >= 0 ? 0.5 : -0.5));
}

/// `s` seconds as a SimTime when it rounds to a duration in
/// [1 ns, kTimeNever); 0 when it does not (too short, negative, or too
/// long for an int64 of nanoseconds).
constexpr SimTime checked_from_seconds(double s) {
  const double ns = s * 1e9;
  return ns >= 0.5 && ns < 0x1p63 ? from_seconds(s) : 0;
}

/// `t + d` for times and durations >= 0, saturating at kTimeNever so a
/// long draw lands past every horizon instead of wrapping into the past.
constexpr SimTime add_saturating(SimTime t, SimTime d) {
  return d > kTimeNever - t ? kTimeNever : t + d;
}

constexpr double to_seconds(SimTime t) { return static_cast<double>(t) / 1e9; }
constexpr double to_milliseconds(SimTime t) {
  return static_cast<double>(t) / 1e6;
}

}  // namespace mck::sim
