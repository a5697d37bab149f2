// Unit tests for the exact binary-fraction weight arithmetic that backs
// the termination detection of Section 3.3.4.
#include "util/weight.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <vector>

namespace mck::util {
namespace {

TEST(Weight, ZeroAndOne) {
  EXPECT_TRUE(Weight::zero().is_zero());
  EXPECT_FALSE(Weight::zero().is_one());
  EXPECT_TRUE(Weight::one().is_one());
  EXPECT_FALSE(Weight::one().is_zero());
  EXPECT_DOUBLE_EQ(Weight::one().to_double(), 1.0);
}

TEST(Weight, HalveProducesExactHalf) {
  Weight w = Weight::one();
  w.halve();
  EXPECT_DOUBLE_EQ(w.to_double(), 0.5);
  w.halve();
  EXPECT_DOUBLE_EQ(w.to_double(), 0.25);
}

TEST(Weight, SplitHalfConserves) {
  Weight w = Weight::one();
  Weight half = w.split_half();
  EXPECT_EQ(w, half);
  w.add(half);
  EXPECT_TRUE(w.is_one());
}

TEST(Weight, DeepHalvingStaysExact) {
  // Far deeper than 64 bits: request chains can halve hundreds of times.
  Weight w = Weight::one();
  const int kDepth = 500;
  for (int i = 0; i < kDepth; ++i) w.halve();
  EXPECT_FALSE(w.is_zero());
  EXPECT_GT(w.fraction_limbs(), 7u);
  // Doubling back up by repeated self-addition restores exactly one.
  for (int i = 0; i < kDepth; ++i) {
    Weight copy = w;
    w.add(copy);
  }
  EXPECT_TRUE(w.is_one());
}

TEST(Weight, AdditionCarriesAcrossLimbs) {
  Weight a = Weight::one();
  for (int i = 0; i < 64; ++i) a.halve();  // exactly 2^-64
  Weight sum = Weight::zero();
  // 2^64 additions is too many; instead add two values whose sum carries:
  // (1 - 2^-64) + 2^-64 == 1.
  Weight almost_one = Weight::one();
  Weight eps = a;
  // almost_one = 1 - 2^-64 built by summing 2^-1 + ... + 2^-64.
  Weight term = Weight::one();
  Weight acc = Weight::zero();
  for (int i = 0; i < 64; ++i) {
    term.halve();
    acc.add(term);
  }
  acc.add(eps);
  EXPECT_TRUE(acc.is_one());
  (void)almost_one;
  (void)sum;
}

TEST(Weight, CompareTotalOrder) {
  Weight a = Weight::one();
  a.halve();  // 0.5
  Weight b = Weight::one();
  b.halve();
  b.halve();  // 0.25
  EXPECT_LT(b, a);
  EXPECT_LT(a, Weight::one());
  EXPECT_TRUE(b <= b);
  EXPECT_EQ(a.compare(a), 0);
}

TEST(Weight, RandomSplitTreeConservesInvariant) {
  // Simulates Lemma 2: split a unit weight along a random tree of
  // "requests", then sum every leaf back; the invariant total == 1 must
  // hold exactly.
  std::mt19937_64 rng(7);
  std::vector<Weight> outstanding;
  outstanding.push_back(Weight::one());
  for (int step = 0; step < 2000; ++step) {
    std::size_t i = rng() % outstanding.size();
    Weight half = outstanding[i].split_half();
    outstanding.push_back(half);
  }
  Weight total = Weight::zero();
  for (Weight& w : outstanding) total.add(w);
  EXPECT_TRUE(total.is_one()) << total.to_string();
}

TEST(Weight, HalveZeroStaysZero) {
  Weight w = Weight::zero();
  w.halve();
  EXPECT_TRUE(w.is_zero());
  EXPECT_EQ(w.fraction_limbs(), 0u);  // no spurious zero limbs appended
}

TEST(Weight, SplitHalfOfZeroYieldsTwoZeros) {
  Weight w = Weight::zero();
  Weight half = w.split_half();
  EXPECT_TRUE(w.is_zero());
  EXPECT_TRUE(half.is_zero());
}

TEST(Weight, HalveCarriesIntoANewLimb) {
  // 2^-64 is the least significant bit of the first limb; halving it
  // must allocate a second limb holding 2^-65.
  Weight w = Weight::one();
  for (int i = 0; i < 64; ++i) w.halve();
  ASSERT_EQ(w.fraction_limbs(), 1u);
  EXPECT_EQ(w.raw_fraction()[0], 1u);
  w.halve();
  ASSERT_EQ(w.fraction_limbs(), 2u);
  EXPECT_EQ(w.raw_fraction()[0], 0u);
  EXPECT_EQ(w.raw_fraction()[1], 0x8000000000000000ull);
}

TEST(Weight, AddCarriesIntoTheIntegerPart) {
  Weight a = Weight::one();
  a.halve();  // 0.5
  Weight b = a;
  a.add(b);  // 0.5 + 0.5 == 1, fraction limbs fully carried away
  EXPECT_TRUE(a.is_one());
  EXPECT_EQ(a.fraction_limbs(), 0u);
}

TEST(Weight, AddUnequalPrecisions) {
  // 2^-65 + (1 - 2^-65) == 1 exercises carry chains across limbs of
  // different lengths in both argument orders.
  Weight tiny = Weight::one();
  for (int i = 0; i < 65; ++i) tiny.halve();
  Weight rest = Weight::zero();
  Weight term = Weight::one();
  for (int i = 0; i < 65; ++i) {
    term.halve();
    rest.add(term);
  }
  Weight sum1 = tiny;
  sum1.add(rest);
  EXPECT_TRUE(sum1.is_one()) << sum1.to_string();
  Weight sum2 = rest;
  sum2.add(tiny);
  EXPECT_TRUE(sum2.is_one()) << sum2.to_string();
}

TEST(Weight, ToStringRendersHexFraction) {
  Weight w = Weight::one();
  w.halve();
  EXPECT_EQ(w.to_string(), "0.8000000000000000");
}

TEST(Weight, TrySubtractExactAndRefusesUnderflow) {
  Weight w = Weight::one();
  Weight half = Weight::one();
  half.halve();
  ASSERT_TRUE(w.try_subtract(half));
  EXPECT_EQ(w, half);

  // Underflow leaves the value untouched and reports failure.
  Weight before = w;
  Weight bigger = Weight::one();
  EXPECT_FALSE(w.try_subtract(bigger));
  EXPECT_EQ(w, before);

  // Self-subtraction reaches exactly zero.
  ASSERT_TRUE(w.try_subtract(before));
  EXPECT_TRUE(w.is_zero());
}

TEST(Weight, TrySubtractBorrowsAcrossLimbs) {
  // 1 - 2^-100 needs a borrow chain through the integer part and the
  // first fractional limb into the second.
  Weight tiny = Weight::one();
  for (int i = 0; i < 100; ++i) tiny.halve();
  Weight w = Weight::one();
  ASSERT_TRUE(w.try_subtract(tiny));
  Weight sum = w;
  sum.add(tiny);
  EXPECT_TRUE(sum.is_one()) << sum.to_string();
  EXPECT_FALSE(w.is_one());
}

TEST(Weight, FromDoubleBitsRoundTripsProtocolWeights) {
  // Every weight a protocol can record (repeated exact halvings of 1,
  // and sums thereof) must reconstruct exactly from its double bits as
  // long as it fits in 53 significant bits.
  Weight w = Weight::one();
  for (int depth = 0; depth < 50; ++depth) {
    Weight back =
        Weight::from_double_bits(std::bit_cast<std::uint64_t>(w.to_double()));
    EXPECT_EQ(back, w) << "depth " << depth;
    w.halve();
  }
  EXPECT_TRUE(Weight::from_double_bits(std::bit_cast<std::uint64_t>(0.0))
                  .is_zero());
  EXPECT_TRUE(Weight::from_double_bits(std::bit_cast<std::uint64_t>(1.0))
                  .is_one());
  // A mixed sum: 1/2 + 1/8 + 1/2^40.
  Weight mixed = Weight::zero();
  Weight term = Weight::one();
  term.halve();
  mixed.add(term);  // 1/2
  term.halve();
  term.halve();
  mixed.add(term);  // + 1/8
  for (int i = 3; i < 40; ++i) term.halve();
  mixed.add(term);  // + 2^-40
  Weight back = Weight::from_double_bits(
      std::bit_cast<std::uint64_t>(mixed.to_double()));
  EXPECT_EQ(back, mixed) << back.to_string();
}

/// The original from_double_bits: mantissa * 2^exp built by halving the
/// mantissa -exp times. Kept as the reference for the direct placement.
Weight halving_reference(std::uint64_t bits) {
  std::uint64_t biased = (bits >> 52) & 0x7ff;
  std::uint64_t mantissa = bits & ((1ull << 52) - 1);
  if (biased == 0) {
    if (mantissa == 0) return Weight();
    biased = 1;
  } else {
    mantissa |= 1ull << 52;
  }
  const int exp = static_cast<int>(biased) - 1075;
  if (exp >= 0) return Weight(mantissa << exp);
  Weight w(mantissa);
  for (int i = 0; i < -exp; ++i) w.halve();
  return w;
}

TEST(Weight, FromDoubleBitsMatchesHalvingReference) {
  const std::uint64_t kMantissa = (1ull << 52) - 1;
  const std::uint64_t max_bits = std::bit_cast<std::uint64_t>(1024.0);
  std::vector<std::uint64_t> cases = {
      0,                                         // zero
      1,                                         // smallest subnormal
      kMantissa,                                 // largest subnormal
      1ull << 51,                                // subnormal, one bit
      std::bit_cast<std::uint64_t>(0x1p-1022),   // smallest normal
      std::bit_cast<std::uint64_t>(1.0),         // exp = -52
      std::bit_cast<std::uint64_t>(0x1p52),      // exp = 0: no fraction
      std::bit_cast<std::uint64_t>(0x1.fffffffffffffp53),  // exp = 1
      std::bit_cast<std::uint64_t>(1000.5),      // exp = -43
      max_bits,                                  // 2^10: exp = -42
  };
  // Every shift of a normal value below 2^10 (43 to 1074, so each limb
  // boundary at a multiple of 64), with a full and a one-bit mantissa.
  for (std::uint64_t biased = 1; biased < 1033; ++biased) {
    cases.push_back((biased << 52) | kMantissa);
    cases.push_back(biased << 52);
    cases.push_back((biased << 52) | 1);
  }
  std::mt19937_64 rng(11);
  for (int i = 0; i < 20000; ++i) {
    // A random mantissa under a random biased exponent in [0, 1033];
    // patterns above 2^10 are dropped.
    const std::uint64_t r = rng();
    const std::uint64_t bits = ((r >> 52) % 1034 << 52) | (r & kMantissa);
    if (bits <= max_bits) cases.push_back(bits);
  }
  for (std::uint64_t bits : cases) {
    const Weight got = Weight::from_double_bits(bits);
    const Weight want = halving_reference(bits);
    ASSERT_EQ(got, want) << std::hex << bits << ": " << got.to_string()
                         << " vs " << want.to_string();
    // Trimmed like every other Weight: no trailing zero limb.
    ASSERT_EQ(got.fraction_limbs(), want.fraction_limbs()) << std::hex << bits;
  }
}

}  // namespace
}  // namespace mck::util
