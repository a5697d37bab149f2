// Sparse csn arrays. The paper's csn_i[] and dep_csn_i[] are dense
// vectors indexed by process id; at n = 1M hosts that is 4 MB *per
// process* of almost-all-zero state. Every value the protocol ever stores
// is positive (csn starts at 0 and only grows), so a sorted (pid, csn)
// vector holding only the non-zero entries is element-for-element
// equivalent to the dense array with 0 as the default — the invariant the
// randomized property tests in tests/sparse_test.cpp pin against a dense
// reference.
//
// Two representations, one way:
//   sparse  sorted (pid, csn) slots, 8 B each; get/raise/bump binary-search.
//   dense   the plain array of n csns, 4 B each; get/raise/bump are O(1).
// A map starts sparse and switches to dense, once, when its sorted vector
// is full and its next block (twice as many slots) would hold at least the
// dense array's bytes — at n/4 entries when n is a power of two. So a map
// never holds more bytes than the sorted vector would have, and a map
// that communicates with most of its universe (n = 64 LAN runs) reads in
// O(1), while n = 1M maps with a few entries stay sparse. Both live in
// one SmallVec of 8-byte slots — dense slot k holds the csns of pids 2k
// and 2k + 1 — so the map stays 40 bytes, as many as before the switch
// existed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/assert.hpp"
#include "util/small_vec.hpp"
#include "util/types.hpp"

namespace mck::util {

class SparseCsnMap {
 public:
  SparseCsnMap() = default;
  explicit SparseCsnMap(std::size_t n) : n_(checked_size(n)) {}

  /// Universe size (matches the dense vector's size()).
  std::size_t size() const { return n_; }

  /// Dense-equivalent read: 0 when no entry exists.
  Csn get(std::size_t pid) const {
    MCK_ASSERT(pid < n_);
    if (dense_) return e_.data()[pid / 2].v[pid % 2];
    const std::size_t k = lower_bound(pid);
    return k < e_.size() && e_[k].v[kPid] == pid ? e_[k].v[kCsn] : 0;
  }

  /// entry[pid] := max(entry[pid], v) — the only write the protocols need
  /// (csn knowledge is monotone). v = 0 is a no-op, like the dense code's
  /// guarded `if (v > a[pid]) a[pid] = v`.
  void raise(std::size_t pid, Csn v) {
    MCK_ASSERT(pid < n_);
    if (v == 0) return;
    Csn& c = at(pid);
    if (v > c) c = v;
  }

  /// entry[pid] += 1; returns the new value.
  Csn bump(std::size_t pid) {
    MCK_ASSERT(pid < n_);
    return ++at(pid);
  }

  /// Re-initializes to n zeroes (the dense `assign(n, 0)`). Either
  /// representation keeps its block, so a warm refill does not allocate;
  /// a dense map of the same n stays dense.
  void assign(std::size_t n) {
    if (dense_ && n == n_) {
      std::fill(e_.begin(), e_.end(), Slot{});
      return;
    }
    n_ = checked_size(n);
    dense_ = false;
    e_.clear();
  }

  /// Calls fn(pid, csn) for every non-zero entry, ascending by pid.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!dense_) {
      for (const Slot& s : e_) fn(std::size_t{s.v[kPid]}, s.v[kCsn]);
      return;
    }
    for (std::size_t p = 0; p < n_; ++p) {
      const Csn c = e_.data()[p / 2].v[p % 2];
      if (c != 0) fn(p, c);
    }
  }

  /// The number of non-zero entries (O(n) once dense).
  std::size_t active() const {
    if (!dense_) return e_.size();
    std::size_t count = 0;
    for_each([&count](std::size_t, Csn) { ++count; });
    return count;
  }

  bool dense() const { return dense_; }

  /// Heap bytes the map holds: its spill block while sparse (0 while the
  /// entries fit inline), its array once dense.
  std::size_t bytes() const {
    return e_.capacity() > kInline ? e_.capacity() * sizeof(Slot) : 0;
  }

  /// Equal contents, whichever representation either side holds.
  bool operator==(const SparseCsnMap& other) const {
    if (n_ != other.n_) return false;
    if (dense_ == other.dense_) return e_ == other.e_;
    const SparseCsnMap& sparse = dense_ ? other : *this;
    const SparseCsnMap& dense = dense_ ? *this : other;
    if (sparse.active() != dense.active()) return false;
    bool equal = true;
    sparse.for_each([&](std::size_t p, Csn c) { equal &= dense.get(p) == c; });
    return equal;
  }

 private:
  // Sparse: v = {pid, csn}. Dense: slot k is v = {csn[2k], csn[2k + 1]}.
  struct Slot {
    std::uint32_t v[2] = {0, 0};
    bool operator==(const Slot&) const = default;
  };
  static constexpr std::size_t kPid = 0;
  static constexpr std::size_t kCsn = 1;
  static constexpr std::size_t kInline = 2;

  static std::uint32_t checked_size(std::size_t n) {
    MCK_ASSERT(n <= std::numeric_limits<std::uint32_t>::max());
    return static_cast<std::uint32_t>(n);
  }

  std::size_t dense_slots() const { return (std::size_t{n_} + 1) / 2; }

  /// The csn slot of pid, inserted as 0 if absent; the caller stores a
  /// positive value in it before returning, so no zero entry survives.
  Csn& at(std::size_t pid) {
    if (!dense_) {
      const std::size_t k = lower_bound(pid);
      if (k < e_.size() && e_[k].v[kPid] == pid) return e_[k].v[kCsn];
      if (e_.size() < e_.capacity() || 2 * e_.capacity() < dense_slots()) {
        Slot s;
        s.v[kPid] = static_cast<std::uint32_t>(pid);
        return e_.insert(e_.begin() + k, s)->v[kCsn];
      }
      densify();
    }
    return e_.data()[pid / 2].v[pid % 2];
  }

  /// One allocation (none while n <= 2 * kInline); frees the sparse block.
  void densify() {
    Storage d(dense_slots());
    for (const Slot& s : e_) {
      d[s.v[kPid] / 2].v[s.v[kPid] % 2] = s.v[kCsn];
    }
    e_ = std::move(d);
    dense_ = true;
  }

  std::size_t lower_bound(std::size_t pid) const {
    std::size_t lo = 0, hi = e_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (e_[mid].v[kPid] < pid) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  using Storage = SmallVec<Slot, kInline>;

  std::uint32_t n_ = 0;
  bool dense_ = false;
  Storage e_;
};

}  // namespace mck::util
