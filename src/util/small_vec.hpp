// Small-size-inline vector: the hot-path memory discipline of the scale
// path (DESIGN.md "Hot-path memory discipline").
//
// SmallVec<T, N> stores up to N elements inline (no heap touch at all for
// the common small case — a dependency set of a few intervals, a csn map
// of a handful of entries) and spills to the global heap beyond that.
// Growth is geometric and frees the block it outgrows, so a container
// holds at most one spill block, sized by its own high-water mark.
//
// Ownership rule: spill storage is heap storage, owned by exactly one
// container; a move hands it over, a copy allocates its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace mck::util {

/// Vector with N elements of inline storage and heap spill.
/// Supports the subset of std::vector the protocol containers use; the
/// element type must be movable. Not for use with self-referential types.
template <typename T, std::size_t N>
class SmallVec {
  static_assert(N >= 1, "inline capacity must be at least 1");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;

  explicit SmallVec(std::size_t count) { resize(count); }

  SmallVec(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& v : init) push_back(v);
  }

  SmallVec(const SmallVec& other) { assign_copy(other); }

  SmallVec(SmallVec&& other) noexcept { steal(std::move(other)); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear();
      assign_copy(other);
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      destroy_all();
      steal(std::move(other));
    }
    return *this;
  }

  ~SmallVec() { destroy_all(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) {
    MCK_ASSERT(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    MCK_ASSERT(i < size_);
    return data_[i];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow(size_ + 1);
    T* p = ::new (static_cast<void*>(data_ + size_))
        T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  void pop_back() {
    MCK_ASSERT(size_ > 0);
    data_[--size_].~T();
  }

  iterator insert(const_iterator pos, T v) {
    std::size_t idx = static_cast<std::size_t>(pos - data_);
    MCK_ASSERT(idx <= size_);
    if (size_ == cap_) grow(size_ + 1);
    if (idx == size_) {
      ::new (static_cast<void*>(data_ + size_)) T(std::move(v));
    } else {
      ::new (static_cast<void*>(data_ + size_)) T(std::move(data_[size_ - 1]));
      for (std::size_t i = size_ - 1; i > idx; --i) {
        data_[i] = std::move(data_[i - 1]);
      }
      data_[idx] = std::move(v);
    }
    ++size_;
    return data_ + idx;
  }

  iterator erase(const_iterator pos) {
    std::size_t idx = static_cast<std::size_t>(pos - data_);
    MCK_ASSERT(idx < size_);
    for (std::size_t i = idx; i + 1 < size_; ++i) {
      data_[i] = std::move(data_[i + 1]);
    }
    data_[--size_].~T();
    return data_ + idx;
  }

  iterator erase(const_iterator first, const_iterator last) {
    std::size_t lo = static_cast<std::size_t>(first - data_);
    std::size_t hi = static_cast<std::size_t>(last - data_);
    MCK_ASSERT(lo <= hi && hi <= size_);
    std::size_t count = hi - lo;
    for (std::size_t i = lo; i + count < size_; ++i) {
      data_[i] = std::move(data_[i + count]);
    }
    for (std::size_t i = size_ - count; i < size_; ++i) data_[i].~T();
    size_ -= static_cast<std::uint32_t>(count);
    return data_ + lo;
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  void resize(std::size_t count) {
    if (count < size_) {
      for (std::size_t i = count; i < size_; ++i) data_[i].~T();
    } else {
      if (count > cap_) grow(count);
      for (std::size_t i = size_; i < count; ++i) {
        ::new (static_cast<void*>(data_ + i)) T();
      }
    }
    size_ = static_cast<std::uint32_t>(count);
  }

  void reserve(std::size_t count) {
    if (count > cap_) grow(count);
  }

  bool operator==(const SmallVec& other) const {
    if (size_ != other.size_) return false;
    for (std::size_t i = 0; i < size_; ++i) {
      if (!(data_[i] == other.data_[i])) return false;
    }
    return true;
  }

 private:
  T* inline_data() { return reinterpret_cast<T*>(inline_); }
  const T* inline_data() const { return reinterpret_cast<const T*>(inline_); }
  bool is_inline() const { return data_ == inline_data(); }

  void grow(std::size_t need) {
    std::size_t new_cap = cap_ * 2;
    if (new_cap < need) new_cap = need;
    if (new_cap < N) new_cap = N;
    T* mem = static_cast<T*>(
        ::operator new(new_cap * sizeof(T), std::align_val_t{alignof(T)}));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(mem + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    release_storage();
    data_ = mem;
    cap_ = static_cast<std::uint32_t>(new_cap);
  }

  /// Returns spill storage to the heap.
  void release_storage() {
    if (!is_inline()) {
      ::operator delete(static_cast<void*>(data_),
                        std::align_val_t{alignof(T)});
    }
  }

  void destroy_all() {
    clear();
    release_storage();
    data_ = inline_data();
    cap_ = N;
  }

  void assign_copy(const SmallVec& other) {
    reserve(other.size_);
    for (std::size_t i = 0; i < other.size_; ++i) {
      ::new (static_cast<void*>(data_ + i)) T(other.data_[i]);
    }
    size_ = other.size_;
  }

  void steal(SmallVec&& other) {
    if (other.is_inline()) {
      data_ = inline_data();
      cap_ = N;
      for (std::size_t i = 0; i < other.size_; ++i) {
        ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
        other.data_[i].~T();
      }
      size_ = other.size_;
      other.size_ = 0;
    } else {
      data_ = other.data_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.data_ = other.inline_data();
      other.cap_ = N;
      other.size_ = 0;
    }
  }

  T* data_ = inline_data();
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace mck::util
