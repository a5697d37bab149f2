#include "sim/simulator.hpp"

#include <algorithm>
#include <memory>

namespace mck::sim {

// Cold paths only — the per-event schedule/fire functions are inline in
// the header (see "hot path" section there).

Simulator::~Simulator() {
  for (Slot* slots : chunks_) std::destroy_n(slots, kChunkSize);
}

void Simulator::heap_rebuild() {
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
    sift_down(i);
  }
}

std::uint32_t Simulator::grow_slots() {
  // Grow by one chunk. Slot addresses stay stable forever (step() relies
  // on that to run callables in place); the new slots thread onto the
  // freelist so the lowest index is handed out first.
  MCK_ASSERT_MSG(num_slots_ + kChunkSize <= kNoSlot,
                 "event slot pool exhausted");
  auto block = std::make_unique_for_overwrite<unsigned char[]>(kChunkBytes);
  void* at = block.get();
  std::size_t space = kChunkBytes;
  Slot* slots = static_cast<Slot*>(
      std::align(alignof(Slot), kChunkSize * sizeof(Slot), at, space));
  std::uninitialized_default_construct_n(slots, kChunkSize);
  chunk_blocks_.push_back(std::move(block));
  chunks_.push_back(slots);
  std::uint32_t base = num_slots_;
  num_slots_ += kChunkSize;
  for (std::uint32_t i = num_slots_; i-- > base + 1;) {
    slot_ref(i).next_free = free_head_;
    free_head_ = i;
  }
  return base;
}

void Simulator::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!is_pending(slot, gen)) return;  // fired, cancelled, or reused
  if (tracer_ != nullptr) {
    tracer_->record(obs::TraceKind::kEventCancel, now_, -1, 0, 0, slot, gen);
  }
  slot_ref(slot).fn.reset();
  release_slot(slot);
  ++pending_cancelled_;  // its heap record is now a tombstone
}

std::uint64_t Simulator::run_until(SimTime until) {
  std::uint64_t n = 0;
  stop_requested_ = false;
  while (!stop_requested_ && step(until)) {
    ++n;
  }
  if (until != kTimeNever && now_ < until && !stop_requested_) {
    now_ = until;  // time advances to the horizon even if idle
  }
  return n;
}

void Simulator::purge_cancelled() {
  if (pending_cancelled_ == 0) return;
  tombstones_reaped_ += pending_cancelled_;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapRec& r) {
                               return slot_ref(r.slot).generation != r.gen;
                             }),
              heap_.end());
  heap_rebuild();
  pending_cancelled_ = 0;
}

void Simulator::cancel_all() {
  tombstones_reaped_ += pending_cancelled_;
  for (const HeapRec& r : heap_) {
    if (slot_ref(r.slot).generation != r.gen) continue;  // already a tombstone
    slot_ref(r.slot).fn.reset();
    release_slot(r.slot);
  }
  heap_.clear();
  pending_cancelled_ = 0;
}

}  // namespace mck::sim
