// Checkpoint records and their lifecycle.
//
// The paper's taxonomy (Sections 2.2, 3.1):
//   - permanent:  committed state on stable storage at an MSS,
//   - tentative:  on stable storage, awaiting commit/abort,
//   - mutable:    saved locally (MH main memory / local disk), may later be
//                 turned into a tentative checkpoint or discarded,
//   - disconnect: checkpoint left at the MSS when an MH voluntarily
//                 disconnects (Section 2.2),
//   - initial:    the implicit state before any event (csn 0).
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/event_log.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace mck::ckpt {

enum class CkptKind : std::uint8_t {
  kInitial,
  kPermanent,
  kTentative,
  kMutable,
  kDisconnect,
};

// obs/round_metrics.cpp and obs/audit.cpp mirror these discriminators
// (the trace stores them as raw bytes) to avoid an obs -> ckpt dependency
// cycle.
static_assert(static_cast<int>(CkptKind::kPermanent) == 1 &&
                  static_cast<int>(CkptKind::kTentative) == 2 &&
                  static_cast<int>(CkptKind::kMutable) == 3 &&
                  static_cast<int>(CkptKind::kDisconnect) == 4,
              "update the mirror constants in obs/round_metrics.cpp "
              "and obs/audit.cpp");

inline const char* to_string(CkptKind k) {
  switch (k) {
    case CkptKind::kInitial: return "initial";
    case CkptKind::kPermanent: return "permanent";
    case CkptKind::kTentative: return "tentative";
    case CkptKind::kMutable: return "mutable";
    case CkptKind::kDisconnect: return "disconnect";
  }
  return "?";
}

/// Identifier of a checkpointing initiation: the paper's trigger tuple
/// (pid, inum) packed into 64 bits. 0 means "no initiation".
using InitiationId = std::uint64_t;

inline InitiationId make_initiation_id(ProcessId pid, Csn inum) {
  return (static_cast<InitiationId>(static_cast<std::uint32_t>(pid)) << 32) |
         inum;
}
inline ProcessId initiation_pid(InitiationId id) {
  return static_cast<ProcessId>(id >> 32);
}
inline Csn initiation_inum(InitiationId id) {
  return static_cast<Csn>(id & 0xffffffffu);
}

using CkptRef = std::uint32_t;
inline constexpr CkptRef kNoCkpt = UINT32_MAX;

struct CheckpointRecord {
  CkptRef ref = kNoCkpt;
  ProcessId pid = kInvalidProcess;
  Csn csn = 0;
  CkptKind kind = CkptKind::kInitial;
  std::uint64_t event_cursor = 0;  // events of pid with index < cursor are saved
  InitiationId initiation = 0;     // trigger that caused it (0: local decision)
  sim::SimTime taken_at = 0;
  sim::SimTime finalized_at = -1;  // when made permanent
  bool discarded = false;
  // Garbage collection (Section 3.3.4): when this permanent checkpoint
  // was superseded by a newer one and reclaimed from stable storage.
  // -1 = still live. The record itself is kept for post-hoc analysis.
  sim::SimTime gc_at = -1;
};

class CheckpointStore {
 public:
  explicit CheckpointStore(int num_processes)
      : by_process_(static_cast<std::size_t>(num_processes)) {
    // Every process has an implicit initial (permanent) checkpoint with
    // csn 0 covering no events.
    for (int p = 0; p < num_processes; ++p) {
      CheckpointRecord rec;
      rec.pid = p;
      rec.kind = CkptKind::kInitial;
      intern(rec);
    }
  }

  int num_processes() const { return static_cast<int>(by_process_.size()); }

  /// Attaches a flight recorder (null = off): every take / promote /
  /// make_permanent / discard is traced, which covers the checkpoint
  /// lifecycle of all eight protocols from one place.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches the timeline gauge block (null = off). The store owns the
  /// live-checkpoint census: ckpt_live[kind] counts non-discarded records
  /// per lifecycle state (a permanent record leaves the census when the
  /// auto-GC reclaims it). The implicit initial checkpoints are interned
  /// before any sampler can attach and are excluded by construction.
  void set_timeline(obs::TimelineCounters* t) { timeline_ = t; }

  CkptRef take(ProcessId pid, CkptKind kind, Csn csn, InitiationId initiation,
               std::uint64_t event_cursor, sim::SimTime at) {
    CheckpointRecord rec;
    rec.pid = pid;
    rec.kind = kind;
    rec.csn = csn;
    rec.initiation = initiation;
    rec.event_cursor = event_cursor;
    rec.taken_at = at;
    CkptRef ref = intern(rec);
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceKind::kCkptTaken, at, pid,
                      static_cast<std::uint8_t>(kind), 0, initiation,
                      (static_cast<std::uint64_t>(ref) << 32) | csn);
      // Companion record: the event-log cursor is the protocol-free
      // definition of "which events this checkpoint covers" — it is what
      // the offline auditor replays Theorem 1 against.
      tracer_->record(obs::TraceKind::kCkptCursor, at, pid,
                      static_cast<std::uint8_t>(kind), 0,
                      static_cast<std::uint64_t>(ref), event_cursor);
    }
    if (timeline_ != nullptr) ++timeline_->ckpt_live[static_cast<int>(kind)];
    if (kind == CkptKind::kTentative) note_occupancy(pid, at);
    return ref;
  }

  const CheckpointRecord& get(CkptRef ref) const { return all_[idx(ref)]; }

  /// Mutable or disconnect checkpoint is flushed to stable storage.
  void promote_to_tentative(CkptRef ref, InitiationId initiation,
                            sim::SimTime at) {
    CheckpointRecord& rec = mut(ref);
    MCK_ASSERT(rec.kind == CkptKind::kMutable ||
               rec.kind == CkptKind::kDisconnect);
    MCK_ASSERT(!rec.discarded);
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceKind::kCkptPromoted, at, rec.pid,
                      static_cast<std::uint8_t>(rec.kind), 0, initiation, ref);
    }
    if (timeline_ != nullptr) {
      --timeline_->ckpt_live[static_cast<int>(rec.kind)];
      ++timeline_->ckpt_live[static_cast<int>(CkptKind::kTentative)];
    }
    rec.kind = CkptKind::kTentative;
    rec.initiation = initiation;
    rec.finalized_at = at;  // provisional; overwritten on make_permanent
  }

  void make_permanent(CkptRef ref, sim::SimTime at) {
    CheckpointRecord& rec = mut(ref);
    MCK_ASSERT(rec.kind == CkptKind::kTentative);
    MCK_ASSERT(!rec.discarded);
    if (timeline_ != nullptr) {
      --timeline_->ckpt_live[static_cast<int>(CkptKind::kTentative)];
      ++timeline_->ckpt_live[static_cast<int>(CkptKind::kPermanent)];
    }
    rec.kind = CkptKind::kPermanent;
    rec.finalized_at = at;
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceKind::kCkptPermanent, at, rec.pid, 0, 0,
                      rec.initiation, ref);
    }
    if (auto_gc_) garbage_collect(rec.pid, ref, at);
    note_occupancy(rec.pid, at);
  }

  /// Enables the coordinated-checkpointing storage discipline: a newly
  /// permanent checkpoint reclaims its predecessors. Uncoordinated
  /// protocols leave this off — they must keep every checkpoint for the
  /// rollback search, which is exactly the storage overhead Section 6
  /// criticises.
  void set_auto_gc(bool on) { auto_gc_ = on; }

  /// Stable-storage checkpoints of `pid` alive at time `t` (tentative or
  /// permanent, not yet reclaimed). The paper's Section 6 claim: for
  /// coordinated checkpointing this never exceeds 2 — one permanent plus
  /// one in-flight tentative.
  std::size_t stable_live_at(ProcessId pid, sim::SimTime t) const {
    std::size_t n = 0;
    for (CkptRef ref : of_process(pid)) {
      const CheckpointRecord& rec = all_[idx(ref)];
      if (rec.kind != CkptKind::kTentative && rec.kind != CkptKind::kPermanent)
        continue;
      if (rec.taken_at > t) continue;
      if (rec.discarded) continue;  // conservatively: discarded = freed
      if (rec.gc_at >= 0 && rec.gc_at <= t) continue;
      ++n;
    }
    return n;
  }

  /// Highest simultaneous stable-storage occupancy observed for any
  /// process (updated whenever a checkpoint becomes permanent).
  std::size_t peak_stable_occupancy() const { return peak_occupancy_; }

  void discard(CkptRef ref) {
    CheckpointRecord& rec = mut(ref);
    MCK_ASSERT(rec.kind != CkptKind::kPermanent);
    if (timeline_ != nullptr) {
      --timeline_->ckpt_live[static_cast<int>(rec.kind)];
    }
    rec.discarded = true;
    if (tracer_ != nullptr) {
      // discard() has no time parameter; the tracer's last stamped time is
      // the current event's time (monotone), so the record stays ordered.
      tracer_->record(obs::TraceKind::kCkptDiscarded, tracer_->last_at(),
                      rec.pid, static_cast<std::uint8_t>(rec.kind), 0,
                      rec.initiation, ref);
    }
  }

  const std::vector<CkptRef>& of_process(ProcessId pid) const {
    return by_process_[static_cast<std::size_t>(pid)];
  }

  const std::vector<CheckpointRecord>& all() const { return all_; }

  /// Cursors of the latest permanent checkpoint of every process.
  Line latest_permanent_line() const {
    Line line(by_process_.size());
    for (const CheckpointRecord& rec : all_) {
      if (rec.kind != CkptKind::kPermanent && rec.kind != CkptKind::kInitial) {
        continue;
      }
      if (rec.discarded) continue;
      if (rec.event_cursor >= line[rec.pid]) line[rec.pid] = rec.event_cursor;
    }
    return line;
  }

  /// When process `pid` last took a checkpoint headed for stable storage
  /// (tentative or already permanent); 0 if never. Used by the paper's
  /// checkpoint-interval rule: "If a process takes a checkpoint before its
  /// scheduled checkpoint time, the next checkpoint will be scheduled 900s
  /// after that time."
  sim::SimTime last_stable_taken_at(ProcessId pid) const {
    sim::SimTime last = 0;
    for (CkptRef ref : of_process(pid)) {
      const CheckpointRecord& rec = all_[idx(ref)];
      if (rec.discarded) continue;
      if (rec.kind != CkptKind::kTentative && rec.kind != CkptKind::kPermanent)
        continue;
      if (rec.taken_at > last) last = rec.taken_at;
    }
    return last;
  }

  /// Number of live (non-discarded) checkpoints of `kind`.
  std::size_t count(CkptKind kind) const {
    std::size_t n = 0;
    for (const CheckpointRecord& rec : all_) {
      if (!rec.discarded && rec.kind == kind) ++n;
    }
    return n;
  }

 private:
  /// Slot of `ref` in all_ (refs are dense from 0).
  std::size_t idx(CkptRef ref) const {
    std::size_t i = static_cast<std::size_t>(ref);
    MCK_ASSERT(i < all_.size());
    return i;
  }

  CheckpointRecord& mut(CkptRef ref) { return all_[idx(ref)]; }

  /// A new permanent checkpoint supersedes older permanents of the same
  /// process: their stable storage is reclaimed (Section 3.3.4's garbage
  /// collection; Section 6: "each process needs to store only one
  /// permanent checkpoint").
  void garbage_collect(ProcessId pid, CkptRef keep, sim::SimTime at) {
    for (CkptRef ref : of_process(pid)) {
      if (ref == keep) continue;
      CheckpointRecord& rec = all_[idx(ref)];
      if (rec.kind == CkptKind::kPermanent && rec.gc_at < 0) {
        rec.gc_at = at;
        if (timeline_ != nullptr) {
          --timeline_->ckpt_live[static_cast<int>(CkptKind::kPermanent)];
        }
      }
    }
  }

  void note_occupancy(ProcessId pid, sim::SimTime at) {
    std::size_t live = stable_live_at(pid, at);
    if (live > peak_occupancy_) peak_occupancy_ = live;
  }

  CkptRef intern(CheckpointRecord rec) {
    rec.ref = static_cast<CkptRef>(all_.size());
    by_process_[static_cast<std::size_t>(rec.pid)].push_back(rec.ref);
    all_.push_back(rec);
    return rec.ref;
  }

  std::vector<CheckpointRecord> all_;
  std::vector<std::vector<CkptRef>> by_process_;
  std::size_t peak_occupancy_ = 0;
  bool auto_gc_ = false;
  obs::Tracer* tracer_ = nullptr;
  obs::TimelineCounters* timeline_ = nullptr;
};

}  // namespace mck::ckpt
