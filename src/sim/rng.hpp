// Seeded random source for workload generation and mobility models.
// Each simulation run owns exactly one Rng so runs are reproducible from
// their seed alone.
#pragma once

#include <cstdint>
#include <random>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace mck::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    MCK_ASSERT(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [0, 1).
  double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Exponentially distributed duration with the given mean. A draw too
  /// long for SimTime saturates at kTimeNever.
  SimTime exponential(SimTime mean) {
    MCK_ASSERT(mean > 0);
    double u;
    do {
      u = uniform01();
    } while (u <= 0.0);
    double d = -static_cast<double>(mean) * std::log(u);
    if (!(d < 0x1p63)) return kTimeNever;
    SimTime t = static_cast<SimTime>(d);
    return t > 0 ? t : 1;  // keep time strictly advancing
  }

  bool bernoulli(double p) { return uniform01() < p; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace mck::sim
