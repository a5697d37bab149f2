#include "util/weight.hpp"

#include <algorithm>
#include <cstdio>

#include "util/assert.hpp"

namespace mck::util {

void Weight::halve() {
  std::uint64_t carry = int_ & 1u;
  int_ >>= 1;
  for (std::size_t i = 0; i < frac_.size(); ++i) {
    std::uint64_t next_carry = frac_[i] & 1u;
    frac_[i] = (frac_[i] >> 1) | (carry << 63);
    carry = next_carry;
  }
  if (carry != 0) {
    frac_.push_back(carry << 63);
  }
  trim();
}

Weight Weight::split_half() {
  halve();
  return *this;
}

void Weight::add(const Weight& other) {
  if (other.frac_.size() > frac_.size()) {
    frac_.resize(other.frac_.size());
  }
  // Add fractional limbs from least significant (highest index) upward.
  std::uint64_t carry = 0;
  for (std::size_t i = frac_.size(); i-- > 0;) {
    std::uint64_t rhs = i < other.frac_.size() ? other.frac_[i] : 0;
    std::uint64_t sum = frac_[i] + rhs;
    std::uint64_t c1 = sum < frac_[i] ? 1u : 0u;
    std::uint64_t sum2 = sum + carry;
    std::uint64_t c2 = sum2 < sum ? 1u : 0u;
    frac_[i] = sum2;
    carry = c1 + c2;
  }
  std::uint64_t new_int = int_ + other.int_ + carry;
  MCK_ASSERT_MSG(new_int >= int_, "Weight integer overflow");
  int_ = new_int;
  trim();
}

bool Weight::try_subtract(const Weight& other) {
  if (compare(other) < 0) return false;
  if (&other == this) {
    int_ = 0;
    frac_.clear();
    return true;
  }
  if (other.frac_.size() > frac_.size()) frac_.resize(other.frac_.size());
  // Subtract fractional limbs from least significant (highest index)
  // upward, propagating the borrow into the integer part.
  std::uint64_t borrow = 0;
  for (std::size_t i = frac_.size(); i-- > 0;) {
    std::uint64_t rhs = i < other.frac_.size() ? other.frac_[i] : 0;
    std::uint64_t d1 = frac_[i] - rhs;
    std::uint64_t b1 = frac_[i] < rhs ? 1u : 0u;
    std::uint64_t d2 = d1 - borrow;
    std::uint64_t b2 = d1 < borrow ? 1u : 0u;
    frac_[i] = d2;
    borrow = b1 + b2;  // at most one of b1/b2 is set
  }
  MCK_ASSERT(int_ >= other.int_ + borrow);
  int_ -= other.int_ + borrow;
  trim();
  return true;
}

Weight Weight::from_double_bits(std::uint64_t bits) {
  MCK_ASSERT_MSG((bits >> 63) == 0, "weights are non-negative");
  std::uint64_t biased = (bits >> 52) & 0x7ff;
  std::uint64_t mantissa = bits & ((1ull << 52) - 1);
  MCK_ASSERT_MSG(biased != 0x7ff, "inf/nan is not a weight");
  if (biased == 0) {
    if (mantissa == 0) return Weight();
    biased = 1;  // subnormal: same exponent as the smallest normal
  } else {
    mantissa |= 1ull << 52;
  }
  // value == mantissa * 2^(biased - 1075)
  int exp = static_cast<int>(biased) - 1075;
  if (exp >= 0) {
    MCK_ASSERT_MSG(exp <= 10, "weight exceeds the 64-bit integer part");
    return Weight(mantissa << exp);
  }
  // Fractional bit k (weight 2^-k) is bit 63 - (k-1) % 64 of limb
  // (k-1) / 64, and mantissa bit j lands on fractional bit s - j. Padding
  // the s fractional bits to whole limbs leaves the 53 mantissa bits in at
  // most the last two limbs, shifted left by the padding.
  const unsigned s = static_cast<unsigned>(-exp);
  Weight w(s < 64 ? mantissa >> s : 0);
  const std::uint64_t frac = s < 64 ? mantissa & ((1ull << s) - 1) : mantissa;
  if (frac == 0) return w;
  const std::size_t limbs = (s + 63) / 64;
  const unsigned pad = static_cast<unsigned>(limbs * 64 - s);  // 0..63
  w.frac_.resize(limbs);
  w.frac_[limbs - 1] = frac << pad;
  if (pad != 0 && limbs > 1) w.frac_[limbs - 2] = frac >> (64 - pad);
  w.trim();
  return w;
}

bool Weight::is_zero() const { return int_ == 0 && frac_.empty(); }

bool Weight::is_one() const { return int_ == 1 && frac_.empty(); }

int Weight::compare(const Weight& other) const {
  if (int_ != other.int_) return int_ < other.int_ ? -1 : 1;
  std::size_t n = std::max(frac_.size(), other.frac_.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t a = i < frac_.size() ? frac_[i] : 0;
    std::uint64_t b = i < other.frac_.size() ? other.frac_[i] : 0;
    if (a != b) return a < b ? -1 : 1;
  }
  return 0;
}

double Weight::to_double() const {
  double v = static_cast<double>(int_);
  double scale = 1.0;
  for (std::uint64_t limb : frac_) {
    scale /= 18446744073709551616.0;  // 2^64
    v += static_cast<double>(limb) * scale;
  }
  return v;
}

std::string Weight::to_string() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.",
                static_cast<unsigned long long>(int_));
  std::string out = buf;
  for (std::uint64_t limb : frac_) {
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(limb));
    out += buf;
  }
  return out;
}

void Weight::trim() {
  while (!frac_.empty() && frac_.back() == 0) {
    frac_.pop_back();
  }
}

}  // namespace mck::util
