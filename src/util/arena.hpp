// Bump arena + small-size-inline vector: the hot-path memory discipline
// of the scale path (DESIGN.md "Hot-path memory discipline").
//
// Arena is a chained-block bump allocator with no per-object free: a
// System owns one, every long-lived per-process container spills into
// it, and the whole thing is released at System teardown. Compared to
// malloc this removes the ~16-32 B per-allocation header/rounding
// overhead (at 1M processes that is hundreds of MB of RSS), keeps
// related state contiguous, and makes steady-state allocation a pointer
// bump.
//
// SmallVec<T, N> stores up to N elements inline (no heap touch at all for
// the common small case — a dependency set of a few intervals, a csn map
// of a handful of entries) and spills to the arena (or, without one, the
// global heap) beyond that. Spilled blocks are never returned: growth is
// geometric, so waste is bounded by the live size.
//
// Ownership rules (who may point where):
//   * A container tied to an arena must not outlive it. Arenas are owned
//     by the System and live for the whole run; protocol state
//     (IntervalSet / SparseCsnMap / SparseMr fields) may therefore spill
//     into the System arena safely.
//   * Wire payloads and their containers must NOT be arena-backed: they
//     live in pooled shared_ptrs whose lifetime is not tied to the
//     arena's, so payload SmallVecs always spill to the global heap.
//     Copy/move assignment between containers with different arenas
//     copies elements, never storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace mck::util {

class Arena {
 public:
  explicit Arena(std::size_t block_bytes = 1 << 16)
      : block_bytes_(block_bytes < kMinBlock ? kMinBlock : block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() { release(); }

  /// Bump-allocates `bytes` aligned to `align` (power of two). Requests
  /// larger than the block size get a dedicated block.
  void* allocate(std::size_t bytes, std::size_t align) {
    MCK_ASSERT((align & (align - 1)) == 0);
    std::uintptr_t p = (cursor_ + (align - 1)) & ~(std::uintptr_t{align} - 1);
    if (p + bytes > limit_) return allocate_slow(bytes, align);
    cursor_ = p + bytes;
    bytes_used_ += bytes;
    return reinterpret_cast<void*>(p);
  }

  template <typename T>
  T* allocate_array(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Constructs a T inside the arena (destructor is the caller's problem;
  /// the System runs destructors before dropping the arena).
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    return ::new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// Frees every block. Only valid when no arena-backed container is
  /// still live (System teardown).
  void release() {
    Block* b = head_;
    while (b != nullptr) {
      Block* next = b->next;
      ::operator delete(static_cast<void*>(b));
      b = next;
    }
    head_ = nullptr;
    cursor_ = 0;
    limit_ = 0;
    bytes_reserved_ = 0;
    bytes_used_ = 0;
  }

  /// Bytes handed out (live + growth waste); for tests and perf reports.
  std::size_t bytes_used() const { return bytes_used_; }
  /// Bytes reserved from the OS.
  std::size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  static constexpr std::size_t kMinBlock = 1024;

  struct Block {
    Block* next = nullptr;
    std::size_t size = 0;
    // Data follows the header, aligned to max_align_t.
  };

  void* allocate_slow(std::size_t bytes, std::size_t align) {
    std::size_t payload = bytes + align;
    std::size_t block_payload =
        payload > block_bytes_ ? payload : block_bytes_;
    std::size_t total = sizeof(Block) + alignof(std::max_align_t) - 1 +
                        block_payload;
    Block* b = static_cast<Block*>(::operator new(total));
    b->next = head_;
    b->size = total;
    head_ = b;
    bytes_reserved_ += total;
    std::uintptr_t base = reinterpret_cast<std::uintptr_t>(b + 1);
    base = (base + (alignof(std::max_align_t) - 1)) &
           ~(std::uintptr_t{alignof(std::max_align_t)} - 1);
    cursor_ = base;
    limit_ = reinterpret_cast<std::uintptr_t>(b) + total;
    std::uintptr_t p = (cursor_ + (align - 1)) & ~(std::uintptr_t{align} - 1);
    MCK_ASSERT(p + bytes <= limit_);
    cursor_ = p + bytes;
    bytes_used_ += bytes;
    return reinterpret_cast<void*>(p);
  }

  std::size_t block_bytes_;
  Block* head_ = nullptr;
  std::uintptr_t cursor_ = 0;
  std::uintptr_t limit_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t bytes_used_ = 0;
};

/// Vector with N elements of inline storage and arena-aware spill.
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
      if (arena_ == other.arena_) {
        destroy_all();
        steal(std::move(other));
      } else {
        // Different allocation domains: storage cannot change hands (it
        // would dangle or be freed with the wrong allocator) — move the
        // elements instead, keeping our own arena binding.
        clear();
        reserve(other.size_);
        for (std::size_t i = 0; i < other.size_; ++i) {
          ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
        }
        size_ = other.size_;
        other.destroy_all();
      }
    }
    return *this;
  }

  ~SmallVec() { destroy_all(); }

  /// Directs spill storage into `a` (nullptr = global heap). Must be set
  /// before the container first spills; switching arenas with live heap
  /// storage is a bug.
  void set_arena(Arena* a) {
    MCK_ASSERT(data_ == inline_data() || arena_ == a);
    arena_ = a;
  }
  Arena* arena() const { return arena_; }

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
    T* mem = arena_ != nullptr
                 ? arena_->allocate_array<T>(new_cap)
                 : static_cast<T*>(::operator new(new_cap * sizeof(T),
                                                  std::align_val_t{alignof(T)}));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(mem + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    release_storage();
    data_ = mem;
    cap_ = static_cast<std::uint32_t>(new_cap);
  }

  /// Returns heap spill storage (arena spill is never returned).
  void release_storage() {
    if (!is_inline() && arena_ == nullptr) {
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
    // Keeps our own arena binding; only elements are copied.
    reserve(other.size_);
    for (std::size_t i = 0; i < other.size_; ++i) {
      ::new (static_cast<void*>(data_ + i)) T(other.data_[i]);
    }
    size_ = other.size_;
  }

  void steal(SmallVec&& other) {
    arena_ = other.arena_;
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
  Arena* arena_ = nullptr;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace mck::util
