// Exact binary-fraction arithmetic for Huang-style termination detection.
//
// The checkpointing algorithm (Section 3.3.4 of the paper) gives the
// initiator weight 1.0, halves a weight every time a request is propagated,
// and declares termination when the returned weights sum to exactly 1.
// Request propagation can halve a weight hundreds of times, so neither
// double nor a 64-bit fixed point is exact enough. Weight is an
// arbitrary-precision non-negative binary fraction in [0, 2^64): an integer
// part plus little-endian fractional limbs, where fractional limb i holds
// bits 2^-(64*i+1) .. 2^-(64*(i+1)).
//
// The limbs live in a SmallVec with two inline: a request weight halved up
// to 128 times copies without touching the heap, and every reply copies
// the weight it returns.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/small_vec.hpp"

namespace mck::util {

class Weight {
 public:
  /// Fractional limbs, most significant first.
  using Limbs = SmallVec<std::uint64_t, 2>;

  /// Value 0.
  Weight() = default;

  /// Value `integer` (e.g. Weight(1) is the initiator's full weight).
  explicit Weight(std::uint64_t integer) : int_(integer) {}

  static Weight zero() { return Weight(); }
  static Weight one() { return Weight(1); }

  /// Divides the value by 2 exactly (shift right by one bit).
  void halve();

  /// Halves this weight and returns the removed half, so that
  /// *this + returned == old value and *this == returned.
  Weight split_half();

  /// Adds `other` into this weight exactly.
  void add(const Weight& other);

  /// Subtracts `other` exactly. Returns false (leaving the value
  /// unchanged) if `other` is larger — the caller decides whether an
  /// underflow is an error (the trace auditor reports it as a forged
  /// weight rather than crashing).
  bool try_subtract(const Weight& other);

  bool is_zero() const;
  bool is_one() const;

  /// Total ordering; compares exact values.
  int compare(const Weight& other) const;
  bool operator==(const Weight& other) const { return compare(other) == 0; }
  bool operator<(const Weight& other) const { return compare(other) < 0; }
  bool operator<=(const Weight& other) const { return compare(other) <= 0; }

  /// Approximate value, for diagnostics only.
  double to_double() const;

  /// Number of fractional limbs currently stored (precision gauge).
  std::size_t fraction_limbs() const { return frac_.size(); }

  // Raw access for wire serialization (codec round-trips exactly).
  std::uint64_t integer_part() const { return int_; }
  std::span<const std::uint64_t> raw_fraction() const {
    return {frac_.data(), frac_.size()};
  }
  static Weight from_raw(std::uint64_t integer, Limbs fraction) {
    Weight w;
    w.int_ = integer;
    w.frac_ = std::move(fraction);
    w.trim();
    return w;
  }

  /// Reconstructs the exact dyadic value of a finite non-negative double
  /// from its IEEE-754 bit pattern. Trace records store weights this way
  /// (every protocol weight is a dyadic rational, so the round-trip
  /// through double is lossy only past 53 significant bits; the auditor
  /// checks conservation of what was actually recorded).
  static Weight from_double_bits(std::uint64_t bits);

  /// Hex rendering "int.frac0frac1..." for debugging.
  std::string to_string() const;

 private:
  void trim();

  std::uint64_t int_ = 0;
  // frac_[0] holds the most significant 64 fractional bits.
  Limbs frac_;
};

}  // namespace mck::util
