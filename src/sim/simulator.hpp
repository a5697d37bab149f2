// Deterministic discrete-event simulator.
//
// Events at equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), which makes every run a pure
// function of (configuration, seed).
//
// Hot-path memory discipline (see DESIGN.md): the steady state is
// allocation-free. Callables live inline in a generation-counted slot
// pool (InlineEvent — oversized captures fail to compile), the priority
// queue is a 4-ary heap of compact 24-byte {time, seq, slot, generation}
// records popped bottom-up, and cancellation bumps a slot's generation
// instead of allocating a shared flag. A handle whose generation no longer
// matches its slot is stale — fired, cancelled, or from a recycled slot —
// and cancel/valid on it are safe no-ops.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/inline_event.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace mck::sim {

using EventFn = InlineEvent;

class Simulator;

/// Handle to a scheduled event: {slot index, generation} into the owning
/// simulator's slot pool. valid() answers "is this event still pending?"
/// — false once it fired, was cancelled, or was never scheduled. The
/// handle must not outlive the Simulator it came from.
class EventHandle {
 public:
  EventHandle() = default;

  inline bool valid() const;
  inline void cancel();

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= now). Templated so
  /// the closure is constructed directly inside its pool slot — the
  /// steady-state schedule path performs no type-erased relocation and no
  /// allocation.
  template <typename F>
  EventHandle schedule_at(SimTime at, F&& fn) {
    std::uint32_t slot = prepare_slot(at);
    slot_ref(slot).fn.emplace(std::forward<F>(fn));
    return finish_schedule(at, slot);
  }

  /// Schedules `fn` to run `delay` after the current time.
  template <typename F>
  EventHandle schedule_after(SimTime delay, F&& fn) {
    MCK_ASSERT(delay >= 0);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Runs until the queue drains or `until` is passed; returns the number
  /// of events executed.
  std::uint64_t run_until(SimTime until = kTimeNever);

  /// Runs a single event; returns false if the queue is empty or the next
  /// event is beyond `until`. Defined inline below — this is the hottest
  /// function in the tree and must inline into the run loop.
  bool step(SimTime until = kTimeNever);

  /// Stops the run loop after the current event finishes.
  void request_stop() { stop_requested_ = true; }

  /// Attaches a flight recorder (null = off, the default). When off, the
  /// hot path pays exactly one well-predicted null test per event — the
  /// 0-allocs/event guarantee and golden outputs are unaffected. When on,
  /// every fire/cancel is recorded and the queue depth is sampled every
  /// kQueueSampleEvery events.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches a timeline sampler (null = off, the default). Same cost
  /// discipline as the tracer: detached, the hot path pays one null test
  /// per event; attached, one compare against the next tick time. Rows
  /// are emitted from inside step() *before* the due event fires, so a
  /// tick at time t records the state after every event with at < t —
  /// no sampling events are scheduled and event ordering is untouched.
  void set_timeline(obs::TimelineSampler* timeline) { timeline_ = timeline; }

  static constexpr std::uint64_t kQueueSampleEvery = 256;

  /// Drops every cancelled tombstone from the queue. Called automatically
  /// once tombstones dominate; public so tests (and long-lived sims with
  /// bursty cancellation) can force compaction.
  void purge_cancelled();

  /// Cancels every pending event (clean teardown of a long-lived sim).
  /// Queued tombstones count as reaped; live events are simply dropped.
  void cancel_all();

  bool empty() const { return heap_.empty(); }
  /// Queue slots in use, *including* cancelled tombstones awaiting reap.
  std::size_t pending() const { return heap_.size(); }
  /// Events that are actually going to fire (pending minus tombstones) —
  /// the honest measure of remaining work for drain/idle checks.
  std::size_t live_pending() const {
    return heap_.size() - static_cast<std::size_t>(pending_cancelled_);
  }
  /// Cancelled events still occupying queue slots.
  std::uint64_t cancelled_pending() const { return pending_cancelled_; }
  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t tombstones_reaped() const { return tombstones_reaped_; }
  /// Size of the slot pool (high-water mark of concurrently pending
  /// events, rounded up to the chunk size; slots are recycled through a
  /// freelist, never released).
  std::size_t slot_count() const { return num_slots_; }

 private:
  friend class EventHandle;
  friend struct SimulatorTestPeer;  // generation-wraparound tests

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One pooled event: the callable plus the generation that distinguishes
  /// the current tenant from stale handles/records. The generation bumps
  /// when the event fires or is cancelled (freeing the slot), so a heap
  /// record or EventHandle holding the old generation is recognizably
  /// dead even after the slot is reused. next_free links the freelist and
  /// is meaningful only while the slot is free.
  ///
  /// Line-aligned and exactly two cache lines: the capture starts the
  /// first line, and the callable's ops pointer shares the second with the
  /// generation, so the tombstone check in step() touches no third line.
  struct alignas(64) Slot {
    InlineEvent fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
  };
  static_assert(sizeof(Slot) == 128,
                "a slot must stay two cache lines; see InlineEvent::kCapacity");

  /// Compact 24-byte heap record; the callable stays in the slot pool so
  /// heap sift operations move 24 bytes instead of a 100+-byte closure.
  struct HeapRec {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  // (at, seq) as one 128-bit key, so the comparison compiles branch-free.
  // Times are never negative (schedule_at refuses the past), so the
  // unsigned view of `at` keeps its order.
  static unsigned __int128 key(const HeapRec& r) {
    return static_cast<unsigned __int128>(static_cast<std::uint64_t>(r.at))
               << 64 |
           r.seq;
  }
  static bool earlier(const HeapRec& a, const HeapRec& b) {
    return key(a) < key(b);
  }

  // 4-ary min-heap over HeapRec: half the tree depth of a binary heap and
  // 4 children per cache line of records, so a pop touches fewer lines.
  // Pop order is the total order (at, seq) — seqs are unique, so any heap
  // shape pops the same sequence. heap_pop_top is bottom-up (Floyd): the
  // hole left by the top walks the min-child path to a leaf, and the old
  // last record sifts up from there; a record taken from the bottom
  // almost always belongs near the bottom, so this does one comparison
  // per level fewer than a plain sift-down. sift_down serves heap_rebuild.
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void heap_push(HeapRec rec);
  HeapRec heap_pop_top();
  void heap_rebuild();

  std::uint32_t acquire_slot();
  /// Freelist-empty slow path of acquire_slot: appends a chunk.
  std::uint32_t grow_slots();
  void release_slot(std::uint32_t slot);
  bool is_pending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < num_slots_ && slot_ref(slot).generation == gen;
  }
  /// Cancels the event in `slot` if `gen` is still its current tenant.
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);

  /// Asserts `at` is schedulable, maybe compacts tombstones, and returns a
  /// fresh slot whose InlineEvent is empty and ready for emplace().
  std::uint32_t prepare_slot(SimTime at);
  /// Pushes the heap record for the freshly filled `slot`.
  EventHandle finish_schedule(SimTime at, std::uint32_t slot);

  // Slots live in fixed-size chunks, so a slot's address NEVER changes:
  // growing the pool appends a chunk instead of reallocating, which lets
  // step() invoke a callable in place while it schedules new events.
  // A chunk's slots start at the first line boundary of a plain block:
  // new[] of the over-aligned Slot goes through glibc's memalign, and
  // with it the set-up of a small system (simbench lan-p2p) took twice as
  // long.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::size_t kChunkBytes =
      kChunkSize * sizeof(Slot) + alignof(Slot) - 1;

  Slot& slot_ref(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  const Slot& slot_ref(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }

  std::vector<HeapRec> heap_;
  std::vector<Slot*> chunks_;  // the slots of chunk_blocks_[k]
  std::vector<std::unique_ptr<unsigned char[]>> chunk_blocks_;
  std::uint32_t num_slots_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  SimTime now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t tombstones_reaped_ = 0;
  std::uint64_t pending_cancelled_ = 0;
  bool stop_requested_ = false;
  obs::Tracer* tracer_ = nullptr;
  obs::TimelineSampler* timeline_ = nullptr;
};

inline bool EventHandle::valid() const {
  return sim_ != nullptr && sim_->is_pending(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_slot(slot_, gen_);
}

// ---- hot path, defined inline ----------------------------------------
// schedule/fire run millions of times per replication; keeping these in
// the header lets them inline into the transports' send paths and the
// run loop (the project builds without LTO, so a .cpp definition would
// cost an opaque call per event).

inline void Simulator::sift_up(std::size_t i) {
  HeapRec rec = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / 4;
    if (!earlier(rec, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = rec;
}

inline void Simulator::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  HeapRec rec = heap_[i];
  for (;;) {
    std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], rec)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = rec;
}

inline void Simulator::heap_push(HeapRec rec) {
  heap_.push_back(rec);
  sift_up(heap_.size() - 1);
}

inline Simulator::HeapRec Simulator::heap_pop_top() {
  const HeapRec top = heap_[0];
  const HeapRec last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  HeapRec* h = heap_.data();
  // Walk the hole down through full groups of 4 children: the min of four
  // in three comparisons, none of them an early exit.
  std::size_t i = 0;
  for (std::size_t first = 1; first + 4 <= n; first = 4 * i + 1) {
    const std::size_t a = first + earlier(h[first + 1], h[first]);
    const std::size_t b = first + 2 + earlier(h[first + 3], h[first + 2]);
    i = earlier(h[b], h[a]) ? b : a;
    h[(i - 1) / 4] = h[i];
  }
  // A last group with 1-3 children.
  const std::size_t first = 4 * i + 1;
  if (first < n) {
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c) {
      if (earlier(h[c], h[best])) best = c;
    }
    h[i] = h[best];
    i = best;
  }
  // The hole is a leaf now; the old last record sifts up into place.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(last, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = last;
  return top;
}

inline std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    std::uint32_t slot = free_head_;
    free_head_ = slot_ref(slot).next_free;
    return slot;
  }
  return grow_slots();
}

inline void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slot_ref(slot);
  // The bump invalidates every outstanding handle and heap record for
  // this tenancy; the slot is then safe to recycle.
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot;
}

inline std::uint32_t Simulator::prepare_slot(SimTime at) {
  MCK_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  // Compact once tombstones are both numerous and the majority of the
  // queue; keeps schedule/pop amortized O(log live) even under heavy
  // cancellation (retry timers, cancelled timeouts).
  if (pending_cancelled_ > 64 && pending_cancelled_ * 2 > heap_.size()) {
    purge_cancelled();
  }
  return acquire_slot();
}

inline EventHandle Simulator::finish_schedule(SimTime at, std::uint32_t slot) {
  std::uint32_t gen = slot_ref(slot).generation;
  heap_push(HeapRec{at, next_seq_++, slot, gen});
  return EventHandle(this, slot, gen);
}

inline bool Simulator::step(SimTime until) {
  while (!heap_.empty()) {
    if (heap_[0].at > until) return false;
    HeapRec rec = heap_pop_top();
    Slot& s = slot_ref(rec.slot);
    if (s.generation != rec.gen) {  // cancelled: reap the tombstone
      ++tombstones_reaped_;
      --pending_cancelled_;
      continue;
    }
    if (timeline_ != nullptr && rec.at >= timeline_->next_due()) {
      timeline_->sample_due(rec.at, live_pending(), num_slots_, executed_);
    }
    // Bump the generation *before* running the callable: a late
    // EventHandle::cancel() (including self-cancel from inside the event)
    // sees a stale generation instead of miscounting a tombstone that is
    // no longer queued. The callable runs in place — slot addresses are
    // chunk-stable, and the slot rejoins the freelist only after it
    // returns, so events it schedules can never move or reuse its storage.
    ++s.generation;
    now_ = rec.at;
    ++executed_;
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceKind::kEventFire, rec.at, -1, 0, 0, rec.seq,
                      rec.slot);
      if ((executed_ & (kQueueSampleEvery - 1)) == 0) {
        tracer_->record(obs::TraceKind::kQueueDepth, rec.at, -1, 0, 0,
                        live_pending(), heap_.size());
      }
    }
    // Start loading the next event's slot while this one runs: the heap
    // record says which slot, and with tens of thousands pending that
    // slot is rarely in cache.
    if (!heap_.empty()) {
      const char* next =
          reinterpret_cast<const char*>(&slot_ref(heap_[0].slot));
      __builtin_prefetch(next);
      __builtin_prefetch(next + 64);
    }
    s.fn.invoke_and_reset();
    s.next_free = free_head_;
    free_head_ = rec.slot;
    return true;
  }
  return false;
}

}  // namespace mck::sim
