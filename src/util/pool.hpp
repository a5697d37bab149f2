// Fixed-size freelist pool behind std::allocate_shared.
//
// The message path creates one short-lived payload object per message —
// a make_shared, i.e. one heap allocation, per send. Every allocation a
// Pool<T> serves has the same size (shared_ptr's combined control-block +
// T node), so freed nodes recycle through a freelist and the steady state
// never touches the global heap: acquire() pops a block, the last
// shared_ptr release pushes it back.
//
// Thread model: a pool belongs to the thread that created it
// (make_pooled<T>() keeps one thread_local pool per payload type). Both
// acquire and release must run on that thread: a --jobs worker runs each
// System start to finish, so no payload ever crosses threads, and the
// freelist needs no synchronization. Both paths assert it.
//
// Lifetime: the allocator stored in each shared_ptr's control block holds
// a reference on the pool's core, so a payload may outlive the Pool
// object that produced it — the core, and with it the freelist, is torn
// down by whichever release comes last.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace mck::util {

template <typename T>
class Pool {
 public:
  Pool() : core_(std::make_shared<Core>()) {}
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Constructs a pool-backed shared_ptr<T>. Allocates only when the
  /// freelist is empty (cold start or high-water growth). Owner thread
  /// only — the freelist is single-threaded by design.
  template <typename... Args>
  std::shared_ptr<T> acquire(Args&&... args) {
    return std::allocate_shared<T>(Allocator<T>{core_},
                                   std::forward<Args>(args)...);
  }

  /// Blocks sitting in the freelist, ready for reuse.
  std::size_t free_blocks() const { return core_->free_.size(); }
  /// Blocks ever carved from the heap (freelisted + outstanding).
  std::size_t blocks_allocated() const { return core_->allocated_; }
  std::size_t outstanding() const {
    return blocks_allocated() - core_->free_.size();
  }

  /// Returns freelisted blocks to the heap (outstanding blocks still
  /// recycle into the pool when released).
  void shrink() { core_->shrink(); }

 private:
  /// The shared state behind every allocator copy. Kept alive past the
  /// Pool by the allocators stored in outstanding control blocks, so a
  /// late release never dangles.
  struct Core {
    ~Core() { shrink(); }

    void* alloc_block(std::size_t bytes) {
      MCK_ASSERT_MSG(std::this_thread::get_id() == owner_,
                     "Pool::acquire on a non-owner thread");
      if (block_size_ == 0) block_size_ = bytes;
      // allocate_shared makes exactly one allocation of one node type, so
      // every request through this pool has the same size.
      MCK_ASSERT_MSG(bytes == block_size_, "Pool block size changed");
      if (!free_.empty()) {
        void* b = free_.back();
        free_.pop_back();
        return b;
      }
      ++allocated_;
      return ::operator new(bytes);
    }

    void free_block(void* p) {
      MCK_ASSERT_MSG(std::this_thread::get_id() == owner_,
                     "Pool release on a non-owner thread");
      free_.push_back(p);
    }

    void shrink() {
      for (void* b : free_) ::operator delete(b);
      allocated_ -= free_.size();
      free_.clear();
    }

    const std::thread::id owner_ = std::this_thread::get_id();
    std::size_t block_size_ = 0;
    std::size_t allocated_ = 0;
    std::vector<void*> free_;
  };

  template <typename U>
  struct Allocator {
    using value_type = U;
    std::shared_ptr<Core> core;

    explicit Allocator(std::shared_ptr<Core> c) : core(std::move(c)) {}
    template <typename V>
    Allocator(const Allocator<V>& o) : core(o.core) {}  // NOLINT

    U* allocate(std::size_t n) {
      return static_cast<U*>(core->alloc_block(n * sizeof(U)));
    }
    void deallocate(U* p, std::size_t) { core->free_block(p); }
    template <typename V>
    bool operator==(const Allocator<V>& o) const { return core == o.core; }
    template <typename V>
    bool operator!=(const Allocator<V>& o) const { return core != o.core; }
  };

  std::shared_ptr<Core> core_;
};

/// Pool-backed replacement for std::make_shared on high-churn message
/// payloads: one thread_local pool per payload type. Zero heap traffic in
/// steady state; every payload must be released on the thread that made
/// it.
template <typename T, typename... Args>
std::shared_ptr<T> make_pooled(Args&&... args) {
  thread_local Pool<T> pool;
  return pool.acquire(std::forward<Args>(args)...);
}

}  // namespace mck::util
