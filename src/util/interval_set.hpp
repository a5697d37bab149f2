// Sparse set of process ids over a fixed universe [0, n), stored as
// sorted, disjoint, non-adjacent half-open intervals [lo, hi).
//
// Semantically a drop-in for BitVec where the protocol only ever touches
// the *active* dependencies: set / test / merge / count / for_each cost
// O(intervals), never O(n). Workloads cluster communication (a cell's
// members, a group's peers), so the interval form also beats a plain
// sorted-id vector: a dependency set of one full 64-host cell is one
// interval, not 64 entries. The dense-equivalence invariant — every
// operation leaves the set element-for-element equal to the BitVec the
// dense path would hold — is what the randomized property tests in
// tests/sparse_test.cpp pin down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/small_vec.hpp"

namespace mck::util {

class IntervalSet {
 public:
  struct Interval {
    std::uint32_t lo = 0;  // inclusive
    std::uint32_t hi = 0;  // exclusive
    bool operator==(const Interval&) const = default;
  };

  /// Inline capacity: most dependency sets are a handful of clustered
  /// peers, so the common case never touches the heap.
  using Storage = SmallVec<Interval, 3>;

  IntervalSet() = default;
  explicit IntervalSet(std::size_t n) : n_(n) {}

  /// Universe size (matches the dense BitVec's size()).
  std::size_t size() const { return n_; }

  void set(std::size_t i, bool v = true) {
    MCK_ASSERT(i < n_);
    const std::uint32_t x = static_cast<std::uint32_t>(i);
    std::size_t k = lower_bound_hi(x);
    // iv_[k] is the first interval with hi > x (insertion neighborhood).
    if (v) {
      if (k < iv_.size() && iv_[k].lo <= x) return;  // already set
      const bool glue_left = k < iv_.size() && iv_[k].lo == x + 1;
      const bool glue_right = k > 0 && iv_[k - 1].hi == x;
      if (glue_left && glue_right) {
        iv_[k - 1].hi = iv_[k].hi;
        iv_.erase(iv_.begin() + static_cast<std::ptrdiff_t>(k));
      } else if (glue_left) {
        iv_[k].lo = x;
      } else if (glue_right) {
        iv_[k - 1].hi = x + 1;
      } else {
        iv_.insert(iv_.begin() + static_cast<std::ptrdiff_t>(k),
                   Interval{x, x + 1});
      }
    } else {
      if (k >= iv_.size() || iv_[k].lo > x) return;  // already clear
      Interval& cur = iv_[k];
      if (cur.lo == x && cur.hi == x + 1) {
        iv_.erase(iv_.begin() + static_cast<std::ptrdiff_t>(k));
      } else if (cur.lo == x) {
        cur.lo = x + 1;
      } else if (cur.hi == x + 1) {
        cur.hi = x;
      } else {
        Interval right{x + 1, cur.hi};
        cur.hi = x;
        iv_.insert(iv_.begin() + static_cast<std::ptrdiff_t>(k) + 1, right);
      }
    }
  }

  bool test(std::size_t i) const {
    MCK_ASSERT(i < n_);
    const std::uint32_t x = static_cast<std::uint32_t>(i);
    std::size_t k = lower_bound_hi(x);
    return k < iv_.size() && iv_[k].lo <= x;
  }

  void reset() { iv_.clear(); }

  /// Union-in (paper's "R := R ∪ CP.R"); O(|this| + |other|). Merges in
  /// place: this set's intervals move to the tail of its own storage and
  /// the union is written forward from the front. The write position
  /// never passes the read position, so no scratch is needed, and a warm
  /// set remerges without allocating.
  void merge(const IntervalSet& other) {
    MCK_ASSERT(other.size() == size());
    if (other.iv_.empty() || &other == this) return;
    if (iv_.empty()) {
      iv_ = other.iv_;
      return;
    }
    const std::size_t na = iv_.size();
    const std::size_t nb = other.iv_.size();
    iv_.resize(na + nb);
    for (std::size_t i = na; i-- > 0;) iv_[nb + i] = iv_[i];
    std::size_t a = nb, b = 0, out = 0;
    while (a < na + nb || b < nb) {
      Interval next;
      if (b >= nb || (a < na + nb && iv_[a].lo <= other.iv_[b].lo)) {
        next = iv_[a++];
      } else {
        next = other.iv_[b++];
      }
      if (out > 0 && next.lo <= iv_[out - 1].hi) {
        if (next.hi > iv_[out - 1].hi) iv_[out - 1].hi = next.hi;
      } else {
        iv_[out++] = next;
      }
    }
    iv_.resize(out);
  }

  bool any() const { return !iv_.empty(); }

  std::size_t count() const {
    std::size_t c = 0;
    for (const Interval& v : iv_) c += v.hi - v.lo;
    return c;
  }

  /// True iff the two sets share at least one element; O(|a| + |b|).
  bool intersects(const IntervalSet& other) const {
    std::size_t a = 0, b = 0;
    while (a < iv_.size() && b < other.iv_.size()) {
      if (iv_[a].hi <= other.iv_[b].lo) {
        ++a;
      } else if (other.iv_[b].hi <= iv_[a].lo) {
        ++b;
      } else {
        return true;
      }
    }
    return false;
  }

  /// Calls fn(std::size_t id) for every member, ascending — the same
  /// visit order as the dense `for (k = 0; k < n; ++k) if (test(k))` loop.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Interval& v : iv_) {
      for (std::uint32_t x = v.lo; x < v.hi; ++x) fn(static_cast<std::size_t>(x));
    }
  }

  bool operator==(const IntervalSet& other) const {
    return n_ == other.n_ && iv_ == other.iv_;
  }

  /// "0110..." rendering for debugging (O(n) — debug only).
  std::string to_string() const {
    std::string s(n_, '0');
    for_each([&s](std::size_t i) { s[i] = '1'; });
    return s;
  }

  // --- codec / construction surface -------------------------------------
  const Storage& intervals() const { return iv_; }

  /// Appends [lo, hi); must be strictly after (and not adjacent to) the
  /// previous interval and inside the universe. Returns false (leaving the
  /// set untouched) on malformed input — the codec's reject path.
  bool append_interval(std::uint32_t lo, std::uint32_t hi) {
    if (lo >= hi || hi > n_) return false;
    if (!iv_.empty() && lo <= iv_.back().hi) return false;
    iv_.push_back(Interval{lo, hi});
    return true;
  }

 private:
  /// Index of the first interval with hi > x.
  std::size_t lower_bound_hi(std::uint32_t x) const {
    std::size_t lo = 0, hi = iv_.size();
    while (lo < hi) {
      std::size_t mid = (lo + hi) / 2;
      if (iv_[mid].hi <= x) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::size_t n_ = 0;
  Storage iv_;
};

}  // namespace mck::util
