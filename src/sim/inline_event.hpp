// Move-only callable with fixed inline storage for the simulator hot path.
//
// Every scheduled event used to be boxed in a std::function<void()>, which
// heap-allocates for any capture larger than a couple of pointers — one
// allocation per event, millions of times per run. InlineEvent stores the
// closure inline: the largest hot-path capture in the tree is a transport
// delivery closure carrying an rt::Message by value (96 bytes including
// the object pointer and an int), so the buffer is 104 bytes. A closure
// that does not fit is a compile error, never a silent heap fallback —
// growing a capture past the budget is a decision, not an accident.
//
// Layout: the buffer comes first and the ops pointer after it, so an
// InlineEvent is 112 bytes and the simulator's slot (InlineEvent plus a
// generation and a freelist link) fills exactly two 64-byte cache lines,
// with the ops pointer and the generation on the same line.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mck::sim {

class InlineEvent {
 public:
  /// Inline capture budget. Must fit [this-pointer + rt::Message + an
  /// int] — the delivery closures in src/net and src/mobile are the
  /// largest schedulers in the tree (see DESIGN.md "Inline event
  /// callables" before growing either side of this constant: past 104
  /// bytes a simulator slot no longer fits two cache lines).
  static constexpr std::size_t kCapacity = 104;
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  InlineEvent() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineEvent> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineEvent(F&& fn) {  // NOLINT(google-explicit-constructor)
    static_assert(sizeof(D) <= kCapacity,
                  "event closure exceeds InlineEvent::kCapacity: shrink the "
                  "capture (capture pointers/indices, not containers) or "
                  "deliberately raise the inline budget");
    static_assert(alignof(D) <= kAlign,
                  "event closure is over-aligned for InlineEvent storage");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event closures must be nothrow-move-constructible (the "
                  "slot pool relocates them)");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
    ops_ = &OpsFor<D>::kTable;
  }

  InlineEvent(InlineEvent&& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  InlineEvent& operator=(InlineEvent&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(buf_, other.buf_);
        ops_ = other.ops_;
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;

  /// Constructs the callable directly in the inline buffer, destroying any
  /// current tenant first. The simulator's scheduling path uses this to
  /// build each closure in its pool slot — zero type-erased relocations —
  /// instead of constructing a temporary and moving it in.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& fn) {
    if constexpr (std::is_same_v<D, InlineEvent>) {
      *this = std::move(fn);
    } else {
      static_assert(std::is_invocable_r_v<void, D&>);
      static_assert(sizeof(D) <= kCapacity,
                    "event closure exceeds InlineEvent::kCapacity: shrink the "
                    "capture (capture pointers/indices, not containers) or "
                    "deliberately raise the inline budget");
      static_assert(alignof(D) <= kAlign,
                    "event closure is over-aligned for InlineEvent storage");
      static_assert(std::is_nothrow_move_constructible_v<D>,
                    "event closures must be nothrow-move-constructible (the "
                    "slot pool relocates them)");
      reset();
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &OpsFor<D>::kTable;
    }
  }

  ~InlineEvent() { reset(); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  /// Runs the callable, then destroys it — one indirect call instead of
  /// two on the fire path. Leaves *this empty.
  void invoke_and_reset() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Invokes *self, then destroys it (fire path).
    void (*invoke_destroy)(void* self);
    /// Move-constructs *src into dst, then destroys *src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };

  template <typename D>
  struct OpsFor {
    static void invoke(void* self) { (*static_cast<D*>(self))(); }
    static void invoke_destroy(void* self) {
      D* d = static_cast<D*>(self);
      (*d)();
      d->~D();
    }
    static void relocate(void* dst, void* src) {
      D* s = static_cast<D*>(src);
      ::new (dst) D(std::move(*s));
      s->~D();
    }
    static void destroy(void* self) { static_cast<D*>(self)->~D(); }
    static constexpr Ops kTable{&invoke, &invoke_destroy, &relocate, &destroy};
  };

  alignas(kAlign) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace mck::sim
