// Sparse csn arrays. The paper's csn_i[] and dep_csn_i[] are dense
// vectors indexed by process id; at n = 1M hosts that is 4 MB *per
// process* of almost-all-zero state. Every value the protocol ever stores
// is positive (csn starts at 0 and only grows), so a sorted (pid, csn)
// vector holding only the non-zero entries is element-for-element
// equivalent to the dense array with 0 as the default — the invariant the
// randomized property tests in tests/sparse_test.cpp pin against a dense
// reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/small_vec.hpp"
#include "util/types.hpp"

namespace mck::util {

class SparseCsnMap {
 public:
  struct Entry {
    std::uint32_t pid = 0;
    Csn csn = 0;
    bool operator==(const Entry&) const = default;
  };

  using Storage = SmallVec<Entry, 2>;

  SparseCsnMap() = default;
  explicit SparseCsnMap(std::size_t n) : n_(n) {}

  /// Universe size (matches the dense vector's size()).
  std::size_t size() const { return n_; }

  /// Dense-equivalent read: 0 when no entry exists.
  Csn get(std::size_t pid) const {
    MCK_ASSERT(pid < n_);
    std::size_t k = lower_bound(static_cast<std::uint32_t>(pid));
    return (k < e_.size() && e_[k].pid == pid) ? e_[k].csn : 0;
  }

  /// entry[pid] := max(entry[pid], v) — the only write the protocols need
  /// (csn knowledge is monotone). v = 0 is a no-op, like the dense code's
  /// guarded `if (v > a[pid]) a[pid] = v`.
  void raise(std::size_t pid, Csn v) {
    MCK_ASSERT(pid < n_);
    if (v == 0) return;
    const std::uint32_t p = static_cast<std::uint32_t>(pid);
    std::size_t k = lower_bound(p);
    if (k < e_.size() && e_[k].pid == p) {
      if (v > e_[k].csn) e_[k].csn = v;
    } else {
      e_.insert(e_.begin() + static_cast<std::ptrdiff_t>(k), Entry{p, v});
    }
  }

  /// entry[pid] += 1; returns the new value.
  Csn bump(std::size_t pid) {
    MCK_ASSERT(pid < n_);
    const std::uint32_t p = static_cast<std::uint32_t>(pid);
    std::size_t k = lower_bound(p);
    if (k < e_.size() && e_[k].pid == p) return ++e_[k].csn;
    e_.insert(e_.begin() + static_cast<std::ptrdiff_t>(k), Entry{p, 1});
    return 1;
  }

  /// Re-initializes to n zeroes (the dense `assign(n, 0)`).
  void assign(std::size_t n) {
    n_ = n;
    e_.clear();
  }

  /// Calls fn(pid, csn) for every non-zero entry, ascending by pid.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : e_) fn(static_cast<std::size_t>(e.pid), e.csn);
  }

  std::size_t active() const { return e_.size(); }
  /// The non-zero entries, ascending by pid.
  const Storage& entries() const { return e_; }
  bool operator==(const SparseCsnMap& other) const {
    return n_ == other.n_ && e_ == other.e_;
  }

 private:
  std::size_t lower_bound(std::uint32_t pid) const {
    std::size_t lo = 0, hi = e_.size();
    while (lo < hi) {
      std::size_t mid = (lo + hi) / 2;
      if (e_[mid].pid < pid) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::size_t n_ = 0;
  Storage e_;
};

}  // namespace mck::util
