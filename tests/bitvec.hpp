// Dense bit vector over [0, n): the reference util::IntervalSet is checked
// against in sparse_test. Storage is packed into 64-bit words, so merge /
// any / count run word-wise.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace mck::util {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  std::size_t size() const { return n_; }

  void set(std::size_t i, bool v = true) {
    MCK_ASSERT(i < n_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  bool test(std::size_t i) const {
    MCK_ASSERT(i < n_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Clears all bits.
  void reset() { std::fill(words_.begin(), words_.end(), 0); }

  /// Bitwise OR-in (paper's "R := R ∪ CP.R").
  void merge(const BitVec& other) {
    MCK_ASSERT(other.size() == size());
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] |= other.words_[w];
    }
  }

  bool any() const {
    for (std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  std::size_t count() const {
    std::size_t c = 0;
    for (std::uint64_t w : words_) c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }

  // set()/reset() never write to the tail bits past n_, so word-wise
  // comparison matches element-wise comparison.
  bool operator==(const BitVec& other) const {
    return n_ == other.n_ && words_ == other.words_;
  }

  /// "0110..." rendering for debugging.
  std::string to_string() const {
    std::string s;
    s.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) s.push_back(test(i) ? '1' : '0');
    return s;
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace mck::util
